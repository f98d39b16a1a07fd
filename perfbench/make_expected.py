"""Build ``perfbench/expected.json``, the benchmark's answer key.

Concrete answers come from an independent compiler: every registry
program, and every member of the generated-program pool, is linked with
the execution C library and built with gcc
(``-fwrapv -fno-builtin -Dmain=prog_main``), then run on the same input
the benchmark feeds the interpreter.  Return values are recorded mod
2**32 and SIGFPE is recorded as the division trap.  Where C and MiniC
semantics part ways (undefined behaviour in C), or gcc's build does not
terminate, the entry keeps gcc's observation plus the reason, so it is
listed rather than dropped; the benchmark does not draw it.

Bug kinds per program are hand-written (``BUGS``), each with the
smallest symbolic input size that can reach it.  Every relcheck pair is
expected equivalent.

Run from the repository root (needs gcc on PATH)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.vlibc import libc_source  # noqa: E402
from repro.workloads import all_workloads  # noqa: E402

from jobs import generated_pool  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"

GCC_FLAGS = ["-w", "-fwrapv", "-fno-builtin"]

#: Hand-written bug kinds: program -> [(kind, smallest and largest
#: symbolic input size that reach it (None: no upper end), why)].
#: Programs not listed have no reachable bug.
BUGS = {
    "buggy_div": [("division by zero", 1, None,
                   "100 / (input[0] - '0') with input[0] == '0'")],
    "buggy_index": [("out-of-bounds memory access", 1, None,
                     "table[9] = 1 when input[0] == 'X'")],
    "expr": [("division by zero", 3, None,
              "a / b with input '<d>/0'; inputs shorter than 3 return 0")],
    "fuzz-dce-trapping-div": [
        ("out-of-bounds memory access", 1, 1,
         "input[2] lies past the NUL-terminated buffer of a 1-byte input"),
        ("division by zero", 2, None,
         "acc / islower(input[2]) divides by zero unless input[2] is "
         "lowercase"),
    ],
}

#: Pool members whose gcc build gives no answer to compare against because
#: the program's behaviour is undefined in C: name -> reason.  Like the
#: members that do not terminate under gcc, they stay in the answer key
#: with their reason and the draw skips them.
C_UNDEFINED = {
    "gen-1006": "divides by zero, which is undefined in C: the gcc build "
                "neither traps nor terminates, MiniC traps",
}

HARNESS = r"""
#include <stdio.h>
#include <stdlib.h>
int prog_main(unsigned char *input, int len);
int main(int argc, char **argv) {
    const char *hex = argc > 1 ? argv[1] : "";
    int n = 0;
    while (hex[2 * n] && hex[2 * n + 1]) n++;
    unsigned char *buf = calloc((size_t)n + 1, 1);
    for (int i = 0; i < n; i++) {
        unsigned int byte;
        sscanf(hex + 2 * i, "%2x", &byte);
        buf[i] = (unsigned char)byte;
    }
    int result = prog_main(buf, n);
    printf("%u\n", (unsigned int)result);
    return 0;
}
"""


def gcc_answer(source: str, data: bytes, workdir: Path, name: str,
               timeout: float = 10.0) -> Dict[str, object]:
    """Build ``source`` (already linked with the C library) with gcc and
    run it on ``data``."""
    program_c = workdir / f"{name}.c"
    harness_c = workdir / "harness.c"
    binary = workdir / name
    program_c.write_text(source)
    harness_c.write_text(HARNESS)
    subprocess.run(["gcc", *GCC_FLAGS, "-Dmain=prog_main", "-c",
                    str(program_c), "-o", str(binary) + ".o"], check=True)
    subprocess.run(["gcc", "-w", str(harness_c), str(binary) + ".o",
                    "-o", str(binary)], check=True)
    try:
        run = subprocess.run([str(binary), data.hex()], capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"return_u32": None, "trap": None, "gcc": "timeout"}
    if run.returncode == -signal.SIGFPE:
        return {"return_u32": None, "trap": "division by zero",
                "gcc": "SIGFPE"}
    if run.returncode != 0:
        return {"return_u32": None, "trap": None,
                "gcc": f"exit {run.returncode}"}
    return {"return_u32": int(run.stdout.strip()), "trap": None,
            "gcc": "ok"}


def entry(name: str, source: str, data: bytes,
          workdir: Path) -> Dict[str, object]:
    linked = libc_source(False) + "\n" + source
    record: Dict[str, object] = {
        "input": data.hex(),
        **gcc_answer(linked, data, workdir, name.replace("-", "_"))}
    if name in C_UNDEFINED:
        record["reason"] = C_UNDEFINED[name]
    elif record["gcc"] == "timeout":
        record["reason"] = "does not terminate under gcc within 10 s: no " \
                           "independent answer"
    return record


def main() -> int:
    programs: Dict[str, object] = {}
    generated: Dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for workload in all_workloads():
            programs[workload.name] = entry(
                workload.name, workload.source, workload.sample_input,
                workdir)
        for name, source, data in generated_pool():
            generated[name] = entry(name, source, data, workdir)
    document = {
        "about": "Answer key of the perfbench benchmark; regenerate with "
                 "python3 perfbench/make_expected.py.",
        "compiler": "gcc " + " ".join(GCC_FLAGS) + " -Dmain=prog_main",
        "programs": programs,
        "generated": generated,
        "bugs": {name: [{"kind": kind, "min_input_bytes": low,
                         "max_input_bytes": high, "why": why}
                        for kind, low, high, why in kinds]
                 for name, kinds in sorted(BUGS.items())},
        "relcheck": "equivalent",
    }
    EXPECTED_PATH.write_text(json.dumps(document, indent=1, sort_keys=True)
                             + "\n")
    skipped = [name for name, record in {**programs, **generated}.items()
               if "reason" in record]
    print(f"wrote {os.path.relpath(EXPECTED_PATH)}: {len(programs)} "
          f"registry + {len(generated)} generated entries; listed with a "
          f"reason: {', '.join(skipped) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
