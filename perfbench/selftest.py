"""Self-test of the benchmark's output gate: a tiny pipeline passes every
check, and one flipped byte in student.bin is counted as one failure.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Bench, Workload, check_outputs, scratch_dir  # noqa: E402

TINY = Workload(
    config={"data": {"counts": {"train": 6, "calibration": 4, "test": 4},
                     "pairs_per_factor": 30},
            "teacher": {"epochs": 2,
                        "arch": {"widths": [4, 8], "latent_dim": 10,
                                 "rep_dims": {"haze": [1], "backdrop": [3]}}},
            "distill": {"epochs": 2, "ratio": 0.5},
            "bench": {"runs": 10}},
    setup=("gen-data", "train-teacher", "distill"),
    timed=(), encode_samples=0)


def test_flipped_student_byte_is_a_failure():
    with scratch_dir("selftest-") as work:
        bench = Bench(TINY, seed=3, seconds=0, trace=False, work=work)
        _, art, runs = bench.setup_once(0)
        assert bench.gate.failed == 0, bench.gate.failures
        distill = next(r for r in runs if r.stage == "distill")

        student = Path(art["student"])
        blob = bytearray(student.read_bytes())
        blob[-1] ^= 0x01                      # last payload byte
        student.write_bytes(bytes(blob))

        before = bench.gate.attempted
        check_outputs(bench.gate, distill, student.parent, bench.dde)
        assert bench.gate.attempted > before
        assert bench.gate.failed == 1, bench.gate.failures
        assert "student.bin reloads" in bench.gate.failures[0]
        assert "checksum mismatch" in bench.gate.failures[0]


if __name__ == "__main__":
    test_flipped_student_byte_is_a_failure()
    print("selftest: PASS - a flipped byte in student.bin is counted as one failed check")
