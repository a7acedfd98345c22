#!/usr/bin/env python3
"""Checks that the simulator's and the prover's gates still see bugs.

Each entry of mutants.json (next to this script) names a file, an exact
snippet of it, a replacement, and the gate command that must fail once the
snippet is replaced. The script copies the workspace to a temporary
directory, runs every gate once unmutated (each must pass), then applies
one mutant at a time, builds the gate, runs it, and restores the file.

It fails when a snippet is missing or occurs more than once (a mutant that
no longer applies must be re-targeted, never dropped silently), when a gate
fails on the unmutated copy, when a mutant does not build, or when a gate
passes with its mutant applied. Entries with an "equivalent" reason are
checked for their snippet only: they cannot change a result, so they are
not run and not counted as kills.

Usage: python3 crates/cdpc-machine/tests/mutants/run.py [NAME ...]
With names, only those mutants run. Needs only python3 and cargo; each
mutant costs an incremental release rebuild, so this is not part of
`cargo test`.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[3]


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def tail(output, lines=15):
    return "\n".join(output.rstrip().splitlines()[-lines:])


def main(names):
    mutants = json.loads((HERE / "mutants.json").read_text())
    known = {m["name"] for m in mutants}
    unknown = [n for n in names if n not in known]
    if unknown:
        sys.exit(f"error: unknown mutant(s): {', '.join(unknown)}")

    errors = []
    for m in mutants:
        count = (ROOT / m["file"]).read_text().count(m["snippet"])
        if count != 1:
            errors.append(f"{m['name']}: snippet occurs {count} times in "
                          f"{m['file']}; re-target it")
    if errors:
        print("\n".join(errors))
        return 1

    live = [m for m in mutants
            if "equivalent" not in m and (not names or m["name"] in names)]
    for m in mutants:
        if "equivalent" in m and (not names or m["name"] in names):
            print(f"equivalent  {m['name']}: {m['equivalent']}")

    with tempfile.TemporaryDirectory(prefix="cdpc-mutants-") as tmp:
        ws = pathlib.Path(tmp) / "ws"
        shutil.copytree(ROOT, ws, ignore=shutil.ignore_patterns(
            ".git", "target", ".bench_build"))

        for gate in {tuple(m["gate"]) for m in live}:
            base = run(list(gate), ws)
            if base.returncode != 0:
                print(f"error: gate fails without a mutant: {' '.join(gate)}")
                print(tail(base.stdout))
                return 1

        survived = []
        for m in live:
            path = ws / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["snippet"], m["replacement"]))
            try:
                build = run(m["gate"] + ["--no-run"], ws)
                if build.returncode != 0:
                    errors.append(f"{m['name']}: does not build")
                    print(f"NO BUILD    {m['name']}\n{tail(build.stdout)}")
                    continue
                gate = run(m["gate"], ws)
            finally:
                path.write_text(original)
            if gate.returncode == 0:
                survived.append(m["name"])
                print(f"SURVIVED    {m['name']}: {m['what']}")
            else:
                print(f"killed      {m['name']} by {' '.join(m['gate'])}")

    print(f"{len(live) - len(survived) - len(errors)} of {len(live)} "
          f"mutants killed")
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
