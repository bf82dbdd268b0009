#!/usr/bin/env python3
"""Run a program and diff what it prints against checked-in expected output.

    check_output.py <out-dir> <expected.txt> [<expected-file>...] -- <program> [<arg>...]

<out-dir> is emptied first, and every `<out>` in the arguments is replaced
by it, so a program that writes files writes them there.  The program must
exit 0.  Its stdout, with <out-dir> written back as `<out>`, must equal
<expected.txt> byte for byte, and each further <expected-file> must equal
the file of the same name that the program wrote into <out-dir>.

The run leaves that stdout in <out-dir> as <program>.txt, next to the files
the program wrote, so accepting an intended change is copying them over the
expected files.  Any mismatch prints a unified diff and exits 1; a usage
error exits 2.  Registered as ctest entries (label `outputs`) by
tests/CMakeLists.txt.
"""

from __future__ import annotations

import difflib
import pathlib
import shutil
import subprocess
import sys


def same(expected: pathlib.Path, actual: pathlib.Path) -> bool:
    if not actual.exists():
        print(f"{actual}: not written (expected {expected})")
        return False
    want, got = expected.read_bytes(), actual.read_bytes()
    if want == got:
        return True
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile=str(expected),
        tofile=str(actual),
    )
    sys.stdout.writelines(diff)
    return False


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    files, command = argv[:split], argv[split + 1 :]
    if len(files) < 2 or not command:
        print("usage: check_output.py <out-dir> <expected.txt> "
              "[<expected-file>...] -- <program> [<arg>...]", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(files[0]).resolve()
    expected = [pathlib.Path(f) for f in files[1:]]

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    command = [arg.replace("<out>", str(out_dir)) for arg in command]
    run = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    stdout_file = out_dir / (pathlib.Path(command[0]).name + ".txt")
    stdout_file.write_bytes(run.stdout.replace(str(out_dir).encode(), b"<out>"))
    if run.returncode != 0:
        print(f"{command[0]} exited {run.returncode}")
        return 1

    actual = [stdout_file] + [out_dir / e.name for e in expected[1:]]
    results = [same(e, a) for e, a in zip(expected, actual)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
