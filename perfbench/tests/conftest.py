import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for path in (ROOT / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
