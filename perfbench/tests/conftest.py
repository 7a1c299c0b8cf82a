import sys
from pathlib import Path

# The benchmark imports specsamp from the checkout's sources, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
