"""Every verdict of `run.py compare`, on synthetic paired runs."""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class Verdict(unittest.TestCase):
    def test_insufficient_below_ten_pairs(self):
        self.assertEqual(run.verdict(STEADY[:9], STEADY[:9], "higher", 0.1), "insufficient")

    def test_unchanged(self):
        self.assertEqual(run.verdict(STEADY, [x + 0.05 for x in STEADY], "higher", 0.1),
                         "unchanged")

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr(self):
        change = [x * 1.05 for x in STEADY]
        self.assertEqual(run.verdict(STEADY, change, "higher", 0.1), "gain")
        # Same medians shift, but the change loses two pairs: not a gain.
        mixed = list(change)
        mixed[0], mixed[1] = 90.0, 90.0
        self.assertEqual(run.verdict(STEADY, mixed, "higher", 0.1), "unchanged")
        # Wins every pair by a hair: the gap is inside the parent's IQR.
        self.assertEqual(run.verdict(STEADY, [x + 0.01 for x in STEADY], "higher", 0.1),
                         "unchanged")

    def test_gain_respects_direction(self):
        faster = [x * 0.9 for x in STEADY]
        self.assertEqual(run.verdict(STEADY, faster, "lower", 0.2), "gain")
        self.assertEqual(run.verdict(STEADY, faster, "higher", 0.2), "unchanged")

    def test_regression_beyond_the_bound(self):
        self.assertEqual(run.verdict(STEADY, [x * 0.85 for x in STEADY], "higher", 0.1),
                         "regression")
        self.assertEqual(run.verdict(STEADY, [x * 1.15 for x in STEADY], "lower", 0.1),
                         "regression")
        # Worse, but within the bound.
        self.assertEqual(run.verdict(STEADY, [x * 0.95 for x in STEADY], "higher", 0.1),
                         "unchanged")

    def test_unresolved_when_spread_exceeds_the_bound(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        self.assertEqual(run.verdict(STEADY, noisy, "higher", 0.1), "unresolved")
        self.assertEqual(run.verdict(noisy, STEADY, "higher", 0.1), "unresolved")

    def test_wide_spread_still_gains_when_every_change_run_wins(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        self.assertEqual(run.verdict(noisy, [200 + x for x in noisy], "higher", 0.1), "gain")

    def test_wide_spread_does_not_hide_a_regression(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        self.assertEqual(run.verdict(STEADY, [x * 0.5 for x in noisy], "higher", 0.1),
                         "regression")
        self.assertEqual(run.verdict(noisy, [x * 0.5 for x in STEADY], "higher", 0.1),
                         "regression")


class Compare(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "throughput_ups", "unit": "1/s", "better": "higher",
                            "bound": 0.1}]}

    def write(self, runs):
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        json.dump({"runs": runs}, f)
        f.close()
        self.addCleanup(Path(f.name).unlink)
        return f.name

    def runs(self, values, starts, correct=True, failed=0):
        return [{"workload": "w", "started": t, "correct": correct, "failed": failed,
                 "metrics": {"throughput_ups": v}} for v, t in zip(values, starts)]

    def verdicts(self, parent, change):
        import contextlib
        import io
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run.compare(self.SPEC, self.write(parent), self.write(change))
        rows = json.loads(out.getvalue().strip().splitlines()[-1])["verdicts"]
        return code, [r["verdict"] for r in rows]

    # Pair i: the parent goes first when i is even.
    P_START = [2 * i + (0 if i % 2 == 0 else 1) for i in range(10)]
    C_START = [2 * i + (1 if i % 2 == 0 else 0) for i in range(10)]

    def test_alternating_pairs_are_judged(self):
        code, v = self.verdicts(self.runs(STEADY, self.P_START),
                                self.runs([x * 1.05 for x in STEADY], self.C_START))
        self.assertEqual((code, v), (0, ["gain"]))

    def test_pairs_that_do_not_alternate_are_insufficient(self):
        code, v = self.verdicts(self.runs(STEADY, range(10)),
                                self.runs([x * 1.05 for x in STEADY], range(100, 110)))
        self.assertEqual(v, ["insufficient"])

    def test_regression_fails_the_command(self):
        code, v = self.verdicts(self.runs(STEADY, self.P_START),
                                self.runs([x * 0.5 for x in STEADY], self.C_START))
        self.assertEqual((code, v), (1, ["regression"]))

    def test_noisy_regression_fails_the_command(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        code, v = self.verdicts(self.runs(STEADY, self.P_START),
                                self.runs([x * 0.5 for x in noisy], self.C_START))
        self.assertEqual((code, v), (1, ["regression"]))

    def test_wrong_results_override_speed(self):
        code, v = self.verdicts(self.runs(STEADY, self.P_START),
                                self.runs([x * 2 for x in STEADY], self.C_START, correct=False))
        self.assertEqual((code, v), (1, ["incorrect"]))

    def test_no_gain_when_more_updates_fail(self):
        code, v = self.verdicts(self.runs(STEADY, self.P_START),
                                self.runs([x * 1.05 for x in STEADY], self.C_START, failed=3))
        self.assertEqual(v, ["unchanged"])


if __name__ == "__main__":
    unittest.main()
