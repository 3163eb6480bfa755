"""phnet: networks of 1-D port-Hamiltonian PDE subsystems.

Model subsystems of arbitrary differential order, certify passivity and
closed-loop dissipativity algebraically, discretize with an energy-exact
Gauss-Lobatto collocation, and assess stability through trusted spectra,
resolvent scans, and contractive time integration.
"""

from .model import (MatrixFunction, PHStructuralError, PHSubsystem,
                    ValidationReport, flux_form, flux_matrix, validate_subsystem)
from .network import (ClosedLoopDescription, Controller, Network, NotSerial,
                      SerialStructure, assemble, detect_serial_structure)
from .passivity import (PassivityCertificate, certify_network_dissipative,
                        check_controller_passive, check_impedance,
                        check_scattering, check_sym_p0, null_basis)
from .discretize import (DiscreteGenerator, SubsystemGrid, assemble_generator,
                         discretize_subsystem, make_grid)
from .analysis import (ResolventScan, SpectrumReport, asp_diagnostic,
                       decay_fit, exponential_verdict, resolvent_scan,
                       spectrum)
from .simulate import CayleyStepper, EnergyTrace, simulate
from .scenarios import (SCENARIOS, ScenarioError, build_beam, build_chain,
                        build_coupled, build_mass_damped_string,
                        build_scenario, make_initial_state, scalar_profile)
from .netfile import (NetworkFileError, load_network, network_from_dict,
                      network_to_dict, save_network)

__version__ = "0.1.0"
