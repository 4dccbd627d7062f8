"""The README's examples run as written."""

import os
import re

from gravnet.cli import EXIT_OK, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    section = re.search(r"^## Library use\n(.*?)^## ", text, re.S | re.M).group(1)
    (code,) = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    # the panel the README's own synth line makes, at its size: on a much
    # smaller panel (n=12, same seed) the full design is rank deficient
    (synth,) = [line for line in text.splitlines() if line.startswith("gravnet synth ")]
    monkeypatch.chdir(tmp_path)
    assert main(synth.split()[1:]) == EXIT_OK
    capsys.readouterr()
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed
    for line in printed:
        kind, d, p = line.split()
        assert 0.0 <= float(d) <= 1.0 and 0.0 <= float(p) <= 1.0, line
