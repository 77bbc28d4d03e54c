"""The stdout of ``python -m repro.harness all`` is pinned.

Every table and figure is rendered from the session ``matrix`` exactly as
``main`` prints it (each experiment's text, then a blank line), so the
digest below equals that of ``python -m repro.harness all --no-cache``
stdout.  Any change to a cycle count, bin, ratio or formatting anywhere
in the paper's evaluation moves it: a refactor must leave it alone.
"""

import hashlib

from repro.harness.cli import EXPERIMENTS, _render

#: SHA-256 of ``python -m repro.harness all --no-cache`` stdout (seed 1,
#: scale 1), recorded on CPython 3.11.
HARNESS_ALL_STDOUT_DIGEST = (
    "47eee82ff7c2de464deeaf8f13219cd8a7e97a3e0968747a2f2d2d250b58f2a2"
)


def test_harness_all_stdout_is_pinned(matrix):
    text = "".join(f"{_render(name, matrix)}\n\n" for name in EXPERIMENTS)
    assert hashlib.sha256(text.encode()).hexdigest() == HARNESS_ALL_STDOUT_DIGEST
