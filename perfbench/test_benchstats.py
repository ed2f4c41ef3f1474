"""Self-tests for the benchmark's statistics (no simulator build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import benchstats as bs

HERE = Path(__file__).resolve().parent


def span(sid, name, start, end, parent=-1, pass_id=0):
    return {"id": sid, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "pass": pass_id}


class MedianAndQuartiles(unittest.TestCase):
    def test_odd_and_even_medians(self):
        self.assertEqual(bs.median([3, 1, 2]), 2)
        self.assertEqual(bs.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.31, 0.2, 0.25, 0.4, 0.22, 0.29, 0.27, 0.33, 0.24, 0.3]
        self.assertEqual(bs.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_by_hand(self):
        # Exclusive method: positions (n+1)p = 2.5, 5, 7.5 of 1..9.
        self.assertEqual(bs.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]),
                         (2.5, 5.0, 7.5))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(bs.quartiles([0.5]), (0.5, 0.5, 0.5))


class TailRule(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(bs.tail(list(range(10))))

    def test_eleven_samples(self):
        pct, value = bs.tail(list(range(11)))
        # Value 0 has exactly ten samples (1..10) beyond it.
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_hundred_samples_give_p90(self):
        values = list(range(100, 0, -1))  # unsorted input
        pct, value = bs.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_thousand_samples_give_p99(self):
        pct, value = bs.tail([float(i) for i in range(1000)])
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 989.0)


class FailedFrac(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(bs.failed_frac(20, 0), 0.0)
        self.assertEqual(bs.failed_frac(20, 5), 0.25)
        self.assertEqual(bs.failed_frac(3, 3), 1.0)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(bs.failed_frac(0, 0), 1.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_equals_duration(self):
        t = bs.self_times([span(0, "leaf", 100, 400)])
        self.assertEqual(t["leaf"][0], 1)
        self.assertAlmostEqual(t["leaf"][1], 300e-9)
        self.assertAlmostEqual(t["leaf"][2], 300e-9)

    def test_children_are_subtracted(self):
        spans = [span(0, "pass", 0, 1000),
                 span(1, "a", 100, 300, parent=0),
                 span(2, "b", 400, 900, parent=0),
                 span(3, "a.inner", 150, 250, parent=1)]
        t = bs.self_times(spans)
        self.assertAlmostEqual(t["pass"][2], (1000 - 200 - 500) * 1e-9)
        self.assertAlmostEqual(t["a"][2], (200 - 100) * 1e-9)
        self.assertAlmostEqual(t["b"][2], 500e-9)
        self.assertAlmostEqual(t["a.inner"][2], 100e-9)

    def test_overlapping_children_count_once(self):
        spans = [span(0, "p", 0, 100),
                 span(1, "c", 10, 60, parent=0),
                 span(2, "c", 40, 80, parent=0)]
        self.assertAlmostEqual(bs.self_times(spans)["p"][2], 30e-9)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, "p", 0, 100), span(1, "c", 90, 150, parent=0)]
        self.assertAlmostEqual(bs.self_times(spans)["p"][2], 90e-9)

    def test_same_name_aggregates(self):
        spans = [span(0, "x", 0, 10, pass_id=1), span(1, "x", 20, 50,
                                                       pass_id=3)]
        t = bs.self_times(spans)
        self.assertEqual(t["x"][0], 2)
        self.assertAlmostEqual(t["x"][1], 40e-9)
        per = bs.span_seconds_by_pass(spans, "x")
        self.assertEqual(sorted(per), [1, 3])
        self.assertAlmostEqual(per[1], 10e-9)
        self.assertAlmostEqual(per[3], 30e-9)


class Counters(unittest.TestCase):
    def test_layer_sums_by_prefix(self):
        counters = {"gic.virq_injected": 5, "irqchip.ipi_sent": 2,
                    "nic.rx_bytes": 1000, "kvm.hypercalls": 3,
                    "grant.copies": 1, "vhost.rx_no_descriptor": 4,
                    "app.completed": 7, "trace.health.dropped_records": 9}
        self.assertEqual(bs.layer_sums(counters),
                         {"hw": 7, "hv": 4, "os": 4})
        self.assertEqual(bs.increments(counters), 22)

    def test_vm_digest_follows_brief(self):
        counters = {"vm:vm0/kvm.trap.hvc": 2, "vm:vm0/world_switches": 6,
                    "vm:vm0/virq_injected": 3, "machine/gic.virq": 100}
        hists = {"vm:vm0/cost.trap.wfi": 4, "machine/cost.trap.x": 50}
        self.assertEqual(bs.vm_digest(counters, hists),
                         {"traps": 6, "world_switches": 6, "virqs": 3})


class Fidelity(unittest.TestCase):
    def setUp(self):
        self.ref = json.loads((HERE / "paper_reference.json").read_text())

    def cells_at_paper(self):
        cells = {}
        for table in ("table2", "table3", "table5"):
            ref = self.ref[table]
            for row, values in ref["rows"].items():
                for col, v in zip(ref["columns"], values):
                    if v is not None:
                        cells[f"{table}/{row}/{col}"] = float(v)
        return cells

    def test_reference_shape(self):
        t2 = self.ref["table2"]["rows"]
        self.assertEqual(sum(len(v) for v in t2.values()), 28)
        self.assertEqual(len(self.ref["table3"]["rows"]), 7)
        self.assertEqual(len(bs.paper_errors(self.cells_at_paper(),
                                             self.ref)), 28 + 14 + 18)

    def test_max_and_mean(self):
        cells = self.cells_at_paper()
        cells["table2/Virtual IPI/KVM ARM"] = 13257.0
        cells["table5/Trans/s/Native"] = 23911.0 * 0.9
        rows = bs.paper_errors(cells, self.ref)
        err_max, err_mean = bs.error_summary(rows)
        self.assertAlmostEqual(err_max, 100 * (13257 - 11557) / 11557)
        self.assertAlmostEqual(err_mean, (err_max + 10.0) / len(rows))

    def test_missing_cell_is_an_error(self):
        cells = self.cells_at_paper()
        del cells["table3/VGIC Regs/Save"]
        with self.assertRaises(KeyError):
            bs.paper_errors(cells, self.ref)


if __name__ == "__main__":
    unittest.main()
