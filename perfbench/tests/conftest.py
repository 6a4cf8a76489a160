import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]


@pytest.fixture
def scratch_dir(request):
    """A directory inside the checkout's ignored .perfbench/ output dir."""
    path = os.path.join(ROOT, ".perfbench", "test-%d-%s" % (os.getpid(), request.node.name))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
