"""repro.lint: the analyzer itself, rule by rule.

Each rule gets a positive fixture (flagged), a negative fixture
(clean), and most get a suppressed variant; the baseline machinery has
its own diff cases, and a meta-test holds the *committed* baseline to
its contract: empty, or every entry still matching a live finding.

Fixtures are written under a ``repro/<package>/`` directory structure
inside tmp_path so zone classification sees the paths it would see in
the real tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    analyze_paths,
    diff_against_baseline,
    load_baseline,
    rule,
    write_baseline,
    zone_for_path,
)
from repro.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def findings_for(tmp_path: Path, rel: str, source: str):
    path = write_module(tmp_path, rel, source)
    report = analyze_paths([path])
    return [f for f in report.findings]


def rules_hit(tmp_path, rel, source):
    return {f.rule for f in findings_for(tmp_path, rel, source)}


# ----------------------------------------------------------------------
# Zone map
# ----------------------------------------------------------------------
class TestZones:
    def test_sim_is_deterministic(self):
        assert zone_for_path("src/repro/sim/engine.py") == "deterministic"

    def test_harness_packages_are_relaxed(self):
        assert zone_for_path("src/repro/perf/bench.py") == "relaxed"
        assert zone_for_path("src/repro/telemetry/collector.py") == "relaxed"
        assert zone_for_path("src/repro/experiments/runner.py") == "relaxed"

    def test_unknown_repro_package_fails_closed(self):
        assert zone_for_path("src/repro/newkernel/batch.py") == "deterministic"

    def test_outside_repro_is_relaxed(self):
        assert zone_for_path("tests/test_lint.py") == "relaxed"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_rules_present(self):
        expected = {
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "HOT001", "HOT002", "API001", "DEAD001",
        }
        assert expected <= set(RULES)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            rule("DET001", "again")(lambda ctx: iter(()))


# ----------------------------------------------------------------------
# DET001: unseeded randomness
# ----------------------------------------------------------------------
class TestDet001:
    def test_module_level_random_flagged(self, tmp_path):
        src = "import random\nx = random.random()\n"
        assert "DET001" in rules_hit(tmp_path, "repro/sim/bad.py", src)

    def test_unseeded_random_ctor_flagged(self, tmp_path):
        src = "import random\nrng = random.Random()\n"
        assert "DET001" in rules_hit(tmp_path, "repro/sim/bad.py", src)

    def test_numpy_global_flagged_even_in_relaxed_zone(self, tmp_path):
        src = "import numpy as np\nx = np.random.shuffle([1])\n"
        assert "DET001" in rules_hit(tmp_path, "repro/perf/bad.py", src)

    def test_seeded_random_ok(self, tmp_path):
        src = "import random\nrng = random.Random(7)\ny = rng.random()\n"
        assert "DET001" not in rules_hit(tmp_path, "repro/sim/ok.py", src)


# ----------------------------------------------------------------------
# DET002: wall clock
# ----------------------------------------------------------------------
class TestDet002:
    def test_time_time_flagged_in_det_zone(self, tmp_path):
        src = "import time\nt = time.time()\n"
        assert "DET002" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_from_import_alias_resolved(self, tmp_path):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert "DET002" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_datetime_now_flagged(self, tmp_path):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert "DET002" in rules_hit(tmp_path, "repro/transport/bad.py", src)

    def test_relaxed_zone_may_read_clock(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        assert "DET002" not in rules_hit(tmp_path, "repro/perf/ok.py", src)


# ----------------------------------------------------------------------
# DET003: set iteration feeding the scheduler
# ----------------------------------------------------------------------
class TestDet003:
    def test_set_iteration_in_scheduling_fn_flagged(self, tmp_path):
        src = (
            "def start(sim, flows):\n"
            "    for f in set(flows):\n"
            "        sim.schedule_at(f.t, f.go)\n"
        )
        assert "DET003" in rules_hit(tmp_path, "repro/workloads/bad.py", src)

    def test_dict_keys_iteration_flagged(self, tmp_path):
        src = (
            "def start(sim, flows):\n"
            "    for k in flows.keys():\n"
            "        sim.call_later(1, k)\n"
        )
        assert "DET003" in rules_hit(tmp_path, "repro/workloads/bad.py", src)

    def test_list_iteration_ok(self, tmp_path):
        src = (
            "def start(sim, flows):\n"
            "    for f in sorted(flows):\n"
            "        sim.schedule_at(f.t, f.go)\n"
        )
        assert "DET003" not in rules_hit(tmp_path, "repro/workloads/ok.py", src)

    def test_set_iteration_without_scheduling_ok(self, tmp_path):
        src = "def count(xs):\n    n = 0\n    for x in set(xs):\n        n += 1\n    return n\n"
        assert "DET003" not in rules_hit(tmp_path, "repro/core/ok.py", src)


# ----------------------------------------------------------------------
# DET004: id()/hash() ordering
# ----------------------------------------------------------------------
class TestDet004:
    def test_id_as_dict_key_flagged(self, tmp_path):
        src = "def track(d, link):\n    d[id(link)] = link\n"
        assert "DET004" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_hash_modulo_flagged(self, tmp_path):
        src = "def pick(links, dst):\n    return links[hash(dst) % len(links)]\n"
        assert "DET004" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_plain_hash_call_ok(self, tmp_path):
        src = "def h(x):\n    return hash(x)\n"
        assert "DET004" not in rules_hit(tmp_path, "repro/core/ok.py", src)

    def test_suppression_with_reason_honored(self, tmp_path):
        src = (
            "def pick(links, dst):\n"
            "    return links[hash(dst) % len(links)]"
            "  # repro-lint: allow=DET004 -- int hashes are seed-stable\n"
        )
        hits = rules_hit(tmp_path, "repro/core/ok.py", src)
        assert "DET004" not in hits
        assert "LINT000" not in hits
        assert "LINT001" not in hits


# ----------------------------------------------------------------------
# DET005: float math on *_ns
# ----------------------------------------------------------------------
class TestDet005:
    def test_true_division_into_ns_flagged(self, tmp_path):
        src = "def gap(nbytes, bps):\n    gap_ns = nbytes * 8e9 / bps\n    return gap_ns\n"
        assert "DET005" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_int_wrapped_float_math_flagged(self, tmp_path):
        src = "def slow(gap_ns, factor):\n    gap_ns = int(gap_ns * factor)\n    return gap_ns\n"
        assert "DET005" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_float_equality_on_ns_flagged(self, tmp_path):
        src = "def due(now_ns):\n    return now_ns == 1.5\n"
        assert "DET005" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_integer_ns_math_ok(self, tmp_path):
        src = "def gap(nbytes, bps):\n    gap_ns = nbytes * 8 * 10**9 // bps\n    return gap_ns\n"
        assert "DET005" not in rules_hit(tmp_path, "repro/core/ok.py", src)


# ----------------------------------------------------------------------
# DET006: OS entropy
# ----------------------------------------------------------------------
class TestDet006:
    def test_uuid4_flagged(self, tmp_path):
        src = "import uuid\nrun_id = uuid.uuid4()\n"
        assert "DET006" in rules_hit(tmp_path, "repro/experiments/bad.py", src)

    def test_os_urandom_flagged(self, tmp_path):
        src = "import os\nseed = os.urandom(8)\n"
        assert "DET006" in rules_hit(tmp_path, "repro/sim/bad.py", src)


# ----------------------------------------------------------------------
# HOT001: __slots__ in the hot core
# ----------------------------------------------------------------------
class TestHot001:
    def test_slotless_class_in_sim_flagged(self, tmp_path):
        src = "class Thing:\n    def __init__(self):\n        self.x = 1\n"
        assert "HOT001" in rules_hit(tmp_path, "repro/sim/bad.py", src)

    def test_dataclass_without_slots_flagged(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass Rec:\n    x: int = 0\n"
        )
        assert "HOT001" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_slotted_class_ok(self, tmp_path):
        src = "class Thing:\n    __slots__ = ('x',)\n"
        assert "HOT001" not in rules_hit(tmp_path, "repro/sim/ok.py", src)

    def test_slots_dataclass_ok(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\nclass Rec:\n    x: int = 0\n"
        )
        assert "HOT001" not in rules_hit(tmp_path, "repro/core/ok.py", src)

    def test_exceptions_and_enums_exempt(self, tmp_path):
        src = (
            "from enum import Enum\n"
            "class Kind(Enum):\n    A = 1\n"
            "class BadThing(Exception):\n    pass\n"
        )
        assert "HOT001" not in rules_hit(tmp_path, "repro/sim/ok.py", src)

    def test_outside_hot_core_not_checked(self, tmp_path):
        src = "class Loose:\n    def __init__(self):\n        self.x = 1\n"
        assert "HOT001" not in rules_hit(tmp_path, "repro/fabrics/ok.py", src)

    @pytest.mark.parametrize("package", ["baselines", "transport", "net"])
    def test_push_side_packages_are_covered(self, tmp_path, package):
        # One rule set for both fabrics: the push path's switch,
        # transports and packets are as hot as the pull path's devices.
        src = "class Thing:\n    def __init__(self):\n        self.x = 1\n"
        assert "HOT001" in rules_hit(tmp_path, f"repro/{package}/bad.py", src)

    def test_push_side_hot_classes_are_dict_free(self):
        from repro.baselines.ethernet import EthernetSwitch, EthPort
        from repro.net.packet import Packet
        from repro.transport.host import Host
        from repro.transport.tcp import TcpReceiver, TcpSender

        for cls in (EthernetSwitch, EthPort, Host, TcpSender, TcpReceiver, Packet):
            assert "__dict__" not in dir(cls), cls.__name__

        class Probe(Host):  # subclasses outside the hot zone keep a dict
            pass

        assert "__dict__" in dir(Probe)


# ----------------------------------------------------------------------
# HOT002: closures in hot methods
# ----------------------------------------------------------------------
class TestHot002:
    def test_lambda_in_hot_method_flagged(self, tmp_path):
        src = (
            "class Link:\n"
            "    __slots__ = ()\n"
            "    def send(self, frame):\n"
            "        cb = lambda: frame\n"
            "        return cb\n"
        )
        assert "HOT002" in rules_hit(tmp_path, "repro/sim/link.py", src)

    def test_lambda_in_cold_method_ok(self, tmp_path):
        src = (
            "class Link:\n"
            "    __slots__ = ()\n"
            "    def configure(self):\n"
            "        return lambda: 1\n"
        )
        assert "HOT002" not in rules_hit(tmp_path, "repro/sim/link.py", src)

    @pytest.mark.parametrize(
        "rel, cls, method",
        [
            ("repro/baselines/ethernet.py", "EthernetSwitch", "receive"),
            ("repro/transport/host.py", "Host", "output"),
            ("repro/transport/tcp.py", "TcpSender", "_try_send"),
        ],
    )
    def test_push_side_hot_methods_are_covered(self, tmp_path, rel, cls, method):
        src = (
            f"class {cls}:\n"
            "    __slots__ = ()\n"
            f"    def {method}(self, x=None):\n"
            "        return lambda: x\n"
        )
        assert "HOT002" in rules_hit(tmp_path, rel, src)

    @pytest.mark.parametrize(
        "rel, cls, method",
        [
            ("repro/core/credit.py", "EgressScheduler", "_pump"),
            ("repro/core/fabric_adapter.py", "FabricAdapter", "ingress_packet"),
            ("repro/core/fabric_adapter.py", "FabricAdapter", "_apply_grant"),
            ("repro/core/fabric_adapter.py", "FabricAdapter", "_maybe_report"),
            ("repro/core/fabric_adapter.py", "FabricAdapter", "_deliver_to_port"),
            ("repro/core/reassembly.py", "ReassemblyEngine", "receive"),
        ],
    )
    def test_credit_loop_hot_methods_are_covered(self, tmp_path, rel, cls, method):
        src = (
            f"class {cls}:\n"
            "    __slots__ = ()\n"
            f"    def {method}(self, x=None):\n"
            "        return partial(print, x)\n"
        )
        assert "HOT002" in rules_hit(tmp_path, rel, src)

    def test_repo_hot_methods_are_closure_free(self):
        report = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert [f for f in report.findings if f.rule == "HOT002"] == []


# ----------------------------------------------------------------------
# API001: heapq/bisect containment
# ----------------------------------------------------------------------
class TestApi001:
    def test_heapq_outside_engine_flagged(self, tmp_path):
        src = "import heapq\n"
        assert "API001" in rules_hit(tmp_path, "repro/core/bad.py", src)

    def test_engine_exempt(self, tmp_path):
        src = "import heapq\nheapq.heapify([])\n"
        assert "API001" not in rules_hit(tmp_path, "repro/sim/engine.py", src)

    def test_file_wide_suppression(self, tmp_path):
        src = (
            "# repro-lint: allow-file=API001 -- table lookup, not ordering\n"
            "import bisect\n"
            "i = bisect.bisect_left([1], 1)\n"
        )
        assert "API001" not in rules_hit(tmp_path, "repro/workloads/ok.py", src)


# ----------------------------------------------------------------------
# DEAD001: public top-level definitions nothing loads
# ----------------------------------------------------------------------
class TestDead001:
    UNUSED = "def helper():\n    return helper\n\ndef _private():\n    pass\n"

    def test_unloaded_public_def_flagged(self, tmp_path):
        # Its own body (the recursion) does not count as a load, and a
        # private name is nobody's business.
        hits = findings_for(tmp_path, "repro/net/orphan.py", self.UNUSED)
        assert [(f.rule, f.line) for f in hits] == [("DEAD001", 1)]
        assert "helper is loaded nowhere under repro/" in hits[0].message

    @pytest.mark.parametrize("user", [
        "from repro.net.orphan import helper\n",
        "import repro.net.orphan as o\nx = o.helper\n",
        "def get(mod):\n    return getattr(mod, 'helper')\n",
    ])
    def test_loaded_from_another_module_is_clean(self, tmp_path, user):
        write_module(tmp_path, "repro/core/user.py", user)
        assert "DEAD001" not in rules_hit(
            tmp_path, "repro/net/orphan.py", self.UNUSED
        )

    def test_init_reexport_alone_is_not_a_load(self, tmp_path):
        write_module(
            tmp_path, "repro/net/__init__.py",
            "from repro.net.orphan import helper\n__all__ = ['helper']\n",
        )
        assert "DEAD001" in rules_hit(
            tmp_path, "repro/net/orphan.py", self.UNUSED
        )

    @pytest.mark.parametrize("rel", [
        "repro/analysis/orphan.py", "repro/pipeline/orphan.py",
        "repro/topology/orphan.py", "repro/core/nic.py",
        "repro/net/__main__.py", "notrepro/net/orphan.py",
    ])
    def test_paper_model_paths_and_entry_points_are_exempt(self, tmp_path, rel):
        assert "DEAD001" not in rules_hit(tmp_path, rel, self.UNUSED)


# ----------------------------------------------------------------------
# Suppression hygiene
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        src = "import heapq  # repro-lint: allow=API001\n"
        hits = rules_hit(tmp_path, "repro/core/bad.py", src)
        assert "LINT000" in hits

    def test_unused_suppression_is_a_finding(self, tmp_path):
        src = "x = 1  # repro-lint: allow=DET004 -- stale reason\n"
        hits = rules_hit(tmp_path, "repro/core/stale.py", src)
        assert "LINT001" in hits

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        src = (
            '"""Docs: write # repro-lint: allow=DET004 -- why."""\n'
            "x = 1\n"
        )
        hits = rules_hit(tmp_path, "repro/core/docs.py", src)
        assert hits == set()


# ----------------------------------------------------------------------
# Baseline machinery
# ----------------------------------------------------------------------
class TestBaseline:
    def test_baselined_finding_not_new(self, tmp_path):
        path = write_module(
            tmp_path, "repro/core/old.py", "import heapq\n"
        )
        report = analyze_paths([path])
        assert len(report.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(report, baseline_path)
        new, stale = diff_against_baseline(
            analyze_paths([path]), load_baseline(baseline_path)
        )
        assert new == [] and stale == []

    def test_fresh_finding_is_new_and_fixed_is_stale(self, tmp_path):
        path = write_module(
            tmp_path, "repro/core/old.py", "import heapq\n"
        )
        baseline_path = tmp_path / "baseline.json"
        write_baseline(analyze_paths([path]), baseline_path)
        # Fix the old finding, introduce a different one.
        path.write_text("import bisect\n", encoding="utf-8")
        new, stale = diff_against_baseline(
            analyze_paths([path]), load_baseline(baseline_path)
        )
        assert [f.rule for f in new] == ["API001"]
        assert len(stale) == 1

    def test_committed_baseline_is_empty_or_entries_live(self):
        """The repo baseline may only hold entries that still exist —
        it can shrink as debt is paid, never rot."""
        baseline_path = REPO_ROOT / "lint_baseline.json"
        baseline = load_baseline(baseline_path)
        if not baseline:
            return  # empty: the intended steady state
        report = analyze_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        live = {f.fingerprint for f in report.findings}
        dead = [fp for fp in baseline if fp not in live]
        assert dead == [], f"stale baseline entries: {dead}"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_nonzero_on_each_rule_fixture(self, tmp_path, monkeypatch):
        fixtures = {
            "DET001": ("repro/sim/f1.py", "import random\nx = random.random()\n"),
            "DET002": ("repro/core/f2.py", "import time\nt = time.time()\n"),
            "DET003": (
                "repro/workloads/f3.py",
                "def go(sim, xs):\n    for x in set(xs):\n        sim.call_later(1, x)\n",
            ),
            "DET004": ("repro/core/f4.py", "def f(d, k):\n    d[id(k)] = k\n"),
            "DET005": ("repro/core/f5.py", "def f(b):\n    t_ns = b / 2\n    return t_ns\n"),
            "DET006": ("repro/sim/f6.py", "import uuid\nx = uuid.uuid4()\n"),
            "HOT001": ("repro/sim/f7.py", "class C:\n    pass\n"),
            "HOT002": (
                "repro/sim/link.py",
                "class Link:\n    __slots__ = ()\n"
                "    def send(self):\n        return lambda: 0\n",
            ),
            "API001": ("repro/core/f9.py", "import heapq\n"),
        }
        monkeypatch.chdir(tmp_path)
        for rule_id, (rel, src) in fixtures.items():
            path = write_module(tmp_path, rel, src)
            code = lint_main([str(path), "--no-baseline"])
            assert code == 1, f"{rule_id} fixture should fail the gate"
            path.unlink()

    def test_exit_zero_on_clean_file(self, tmp_path, monkeypatch):
        path = write_module(
            tmp_path, "repro/sim/clean.py",
            "class C:\n    __slots__ = ()\n\n\nINSTANCE = C()\n",
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(path), "--no-baseline"]) == 0

    def test_json_format_and_output_artifact(self, tmp_path, monkeypatch):
        write_module(tmp_path, "repro/core/f.py", "import heapq\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        code = lint_main(
            ["repro", "--no-baseline", "--format=json", "--output", str(out)]
        )
        assert code == 1
        artifact = json.loads(out.read_text())
        assert artifact["summary"] == {"API001": 1}
        assert artifact["findings"][0]["rule"] == "API001"

    def test_repo_tree_is_clean_subprocess(self):
        """The acceptance gate itself: python -m repro.lint exits 0."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "API001" in out
