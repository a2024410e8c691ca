"""The README's CLI walkthrough prints what the README says it prints."""
from pathlib import Path

from wifipoi.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
USERS = ["u%02d" % k for k in range(1, 12)]


def walkthrough_outputs():
    """The `# ...` lines that follow a command in the walkthrough block.

    Paragraphs are separated by blank lines; in each, comment lines
    before the first command are step headings, those after it are
    the command's output.
    """
    text = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    expected = []
    for paragraph in block.split("\n\n"):
        seen_command = False
        for line in paragraph.splitlines():
            if not line.startswith("#"):
                seen_command = True
            elif seen_command:
                expected.append(line[2:])
    return expected


def shown(line, printed):
    """A trailing `...` means some printed line starts with the rest."""
    if line.endswith("..."):
        return any(p.startswith(line[:-3].rstrip()) for p in printed)
    return line in printed


def test_walkthrough_output_is_current(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WIFIPOI_STORE", raising=False)
    assert main(["simulate", "--scenario", "mall-11-users", "--seed", "0", "--out", "sim/"]) == 0
    assert main(["ingest", *sorted(str(p) for p in Path("sim").glob("*.scan.gz"))]) == 0
    for user in USERS:
        assert main(["extract", "--user", user, "--day", "2026-03-07"]) == 0
    assert main(["communities", "--thresholds", "0.2,0.3,0.4,0.5"]) == 0
    assert main(["score", "--truth", "sim/ground_truth.csv", "u01_2026-03-07.csv"]) == 0
    printed = [line.rstrip() for line in capsys.readouterr().out.splitlines()]

    expected = walkthrough_outputs()
    assert len(expected) > 10
    assert [line for line in expected if not shown(line, printed)] == []
