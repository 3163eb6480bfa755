import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# one profile for every property test: reproducible examples, no timing
# limit on the slower linear algebra, no example database on disk
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
