"""Self-tests of the benchmark's own arithmetic and files.

    python3 perfbench/test_perfbench.py

Needs no build: it checks analysis.py on synthetic input and the metric
names of BENCHMARK.json.
"""

import json
import unittest
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class NameGrammar(unittest.TestCase):
    def test_benchmark_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            names.append(metric["name"])
            self.assertRegex(metric["unit"], analysis.UNIT_RE)
        for name in names:
            self.assertRegex(name, analysis.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_emitted_names_match_benchmark(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(analysis.WORKLOADS))
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, dict(analysis.PER_LAYER))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        fake = {"spawned_at": 1.0, "ready_at": 2.0, "wall_s": 2.0, "cpu_s": 3.0, "probes": 4,
                "peak_rss_kb": 1024, "written_bytes": 2**20}
        emitted = analysis.end_to_end([fake])
        self.assertEqual(e2e, {k: u for k, (_, u) in emitted.items()})

    def test_grammar_rejects_bad_names(self):
        for bad in ("round_ms[3]", "-lead", "", "a" * 65, "with space"):
            self.assertNotRegex(bad, analysis.NAME_RE)


class Percentiles(unittest.TestCase):
    def test_thirty_four_rounds_give_p70(self):
        values = list(range(1, 35))
        value, pct, n = analysis.tail(values)
        self.assertEqual(n, 34)
        self.assertEqual(value, 24)  # ten rounds (25..34) lie beyond it
        self.assertEqual(int(pct), 70)

    def test_fewer_than_eleven_samples_give_median_only(self):
        for n in range(0, 11):
            self.assertIsNone(analysis.tail(list(range(n))))
        self.assertEqual(analysis.median([3, 1, 2]), 2)

    def test_eleven_samples_give_the_minimum(self):
        self.assertEqual(analysis.tail(list(range(11, 0, -1)))[0], 1)

    def test_never_above_the_max(self):
        # A log2-bucket quantile would report 16 here; the rule reports a
        # sample.
        values = [10] * 5 + [3] * 20
        value, _, _ = analysis.tail(values)
        self.assertLessEqual(value, max(values))
        self.assertIn(value, values)


class SelfTime(unittest.TestCase):
    SPANS = [
        {"layer": "bench", "name": "root", "parent": -1, "start": 0.0,
         "end": 10.0, "args": {}},
        {"layer": "longitudinal", "name": "a", "parent": 0, "start": 1.0,
         "end": 4.0, "args": {}},
        {"layer": "snapshot", "name": "b", "parent": 0, "start": 3.0,
         "end": 6.0, "args": {}},
        {"layer": "obs", "name": "a.1", "parent": 1, "start": 2.0,
         "end": 3.0, "args": {}},
        {"layer": "report", "name": "late", "parent": 0, "start": 9.0,
         "end": 11.0, "args": {}},
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = analysis.self_times(self.SPANS)
        # root: children cover [1,6] and [9,10] (clipped) -> 10 - 6
        self.assertAlmostEqual(own[0], 4.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 2.0)

    def test_layer_totals(self):
        totals = analysis.layer_self_ms(self.SPANS)
        self.assertAlmostEqual(totals["bench"], 4000.0)
        self.assertAlmostEqual(totals["longitudinal"], 2000.0)
        self.assertEqual(totals["svc"], 0.0)
        self.assertAlmostEqual(sum(totals.values()), 12000.0)


class ChromeTrace(unittest.TestCase):
    def test_trace_file_parses_as_json(self):
        out = ROOT / ".bench_build" / "selftest"
        out.mkdir(parents=True, exist_ok=True)
        path = out / "trace.json"
        analysis.write_chrome_trace(path, [("study-1-2", 5.0,
                                            SelfTime.SPANS)])
        trace = json.loads(path.read_text())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(complete), len(SelfTime.SPANS))
        self.assertEqual(complete[0]["ts"], 5.0e6)
        self.assertEqual(complete[1]["dur"], 3.0e6)
        self.assertEqual(complete[3]["args"]["parent"], 1)
        self.assertTrue(all(e["args"]["run_id"] == "study-1-2"
                            for e in complete))


if __name__ == "__main__":
    unittest.main()
