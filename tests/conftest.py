import hashlib
import json
import sys
from pathlib import Path

import pytest

from thd import build_hypergraph, hyperedge


def pytest_terminal_summary(terminalreporter):
    """Reprint acceptance verdicts outside capture, one line per criterion."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


def make_g1():
    """Four developers, three reviews; the worked fixture used throughout."""
    return build_hypergraph(
        [
            hyperedge("e1", ["a", "b"], 1, 3),
            hyperedge("e2", ["b", "c"], 2, 5),
            hyperedge("e3", ["a", "c", "d"], 4, 4),
        ]
    )


def make_g2():
    """Forced-wait fixture: the only route to d departs at 0 and arrives at 5."""
    return build_hypergraph(
        [
            hyperedge("e4", ["a", "b"], 0, 0),
            hyperedge("e5", ["b", "d"], 5, 5),
        ]
    )


@pytest.fixture
def g1():
    return make_g1()


@pytest.fixture
def g2():
    return make_g2()


def write_version_1_checkpoint(path):
    """A whole-file checkpoint in the layout before the append-only log."""
    body = json.dumps({"metrics": {}, "source": "a", "t0": 0}).encode() + b"\n"
    header = {
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "input_digest": "i",
        "kind": "thd-checkpoint",
        "plan_digest": "p",
        "sources": 1,
        "version": 1,
    }
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def flushed_sources(path):
    """The source of each complete record of a checkpoint log, in log order."""
    records = Path(path).read_bytes().split(b"\n")[1:-1]  # no header, no torn tail
    return [json.loads(record.partition(b" ")[2])["source"] for record in records]
