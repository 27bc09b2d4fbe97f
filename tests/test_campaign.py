"""Campaign service: file parsing, expansion, store integrity, caching,
sharding, and resume-after-SIGKILL byte-identity.

The flow engine makes most of these tests cheap (a tiny-preset flow
point is milliseconds); the kill/resume test deliberately uses the
committed short-window cycle campaign so each point is slow enough for
the signal to land mid-run.
"""

from __future__ import annotations

import ast
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    RESULT_SCHEMA_VERSION,
    ResultStore,
    SWEEPS,
    CorruptEntryError,
    MergeConflictError,
    expand_campaign,
    merge_stores,
    parse_campaign_text,
    run_campaign,
    shard_points,
)
from repro.campaign.cli import main as campaign_main
from repro.campaign.service import point_meta, run_points
from repro.campaign.spec import expand_sweep, load_campaign
from repro.campaign.store import encode_entry
from repro.experiments.common import preset_by_name, quicken
from repro.experiments.runner import QUICK_AXES

REPO = Path(__file__).resolve().parent.parent

TINY_FLOW_TOML = """
[campaign]
name = "unit-tiny-flow"
sweep = "fig5"
preset = "tiny"
engine = "flow"
seeds = [1]

[axes]
variants = ["baseline", "stash25"]
loads = [0.3, 0.7]
"""


def tiny_flow_campaign(**overrides) -> Campaign:
    base = dict(
        name="unit-tiny-flow",
        sweep="fig5",
        preset="tiny",
        engine="flow",
        seeds=(1,),
        axes={"variants": ["baseline", "stash25"], "loads": [0.3, 0.7]},
    )
    base.update(overrides)
    return Campaign(**base)


def store_bytes(root: Path) -> dict[str, bytes]:
    """Relative path -> file bytes for every entry under a store root."""
    store = ResultStore(root)
    return {
        str(p.relative_to(root)): p.read_bytes() for p in store.entry_paths()
    }


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


class TestParsing:
    def test_toml_round_trip(self):
        campaign = parse_campaign_text(TINY_FLOW_TOML, "toml")
        assert campaign.name == "unit-tiny-flow"
        assert campaign.sweep == "fig5"
        assert campaign.engine == "flow"
        assert campaign.seeds == (1,)
        assert campaign.axes["loads"] == [0.3, 0.7]
        assert campaign == tiny_flow_campaign()

    def test_json_equivalent(self):
        data = {
            "campaign": {
                "name": "unit-tiny-flow",
                "sweep": "fig5",
                "preset": "tiny",
                "engine": "flow",
                "seeds": [1],
            },
            "axes": {
                "variants": ["baseline", "stash25"],
                "loads": [0.3, 0.7],
            },
        }
        campaign = parse_campaign_text(json.dumps(data), "json")
        assert campaign == parse_campaign_text(TINY_FLOW_TOML, "toml")

    def test_load_campaign_by_suffix(self, tmp_path):
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(TINY_FLOW_TOML)
        assert load_campaign(str(toml_path)) == tiny_flow_campaign()

    def test_committed_campaign_files_load(self):
        files = sorted((REPO / "campaigns").glob("*.toml"))
        assert files, "no committed campaign files found"
        for path in files:
            load_campaign(str(path))

    @pytest.mark.parametrize(
        "mutant, match",
        [
            ({"sweep": "fig10"}, "unknown sweep"),
            ({"preset": "huge"}, "unknown preset"),
            ({"engine": "quantum"}, "unknown engine"),
            ({"seeds": ()}, "seeds"),
            ({"seeds": (True,)}, "seeds"),
            ({"windows": {"tea_break": 5}}, "windows"),
            ({"quick": "false"}, "quick"),
        ],
    )
    def test_validation_errors(self, mutant, match):
        with pytest.raises(CampaignError, match=match):
            tiny_flow_campaign(**mutant)

    def test_unknown_sections_and_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign section"):
            parse_campaign_text('{"campaign": {}, "extra": {}}', "json")
        with pytest.raises(CampaignError, match="unknown \\[campaign\\] key"):
            parse_campaign_text(
                '{"campaign": {"name": "x", "sweep": "fig5", "bogus": 1}}',
                "json",
            )
        with pytest.raises(CampaignError, match="missing 'sweep'"):
            parse_campaign_text('{"campaign": {"name": "x"}}', "json")

    def test_unknown_axes_rejected_at_expansion(self):
        campaign = tiny_flow_campaign(axes={"flavours": ["mint"]})
        with pytest.raises(ValueError, match="unknown \\['flavours'\\]"):
            expand_campaign(campaign)
        # the interactive expansion goes through the same validation
        with pytest.raises(ValueError, match="unknown \\['burst'\\]"):
            expand_sweep(
                "fig9", preset_by_name("tiny"), {"burst": [1]}, (1,), "flow"
            )

    def test_cycle_only_family_rejects_the_flow_engine_at_expansion(self):
        """Pairing a cycle-only family with ``engine = "flow"`` fails
        once, at expansion, naming the family and the fastpath docs —
        not once per point as ``EngineUnsupported`` from the pool."""
        for sweep, family in SWEEPS.items():
            if "flow" in family.engines:
                continue
            with pytest.raises(ValueError, match=f"'{sweep}' is cycle-only"):
                expand_sweep(sweep, preset_by_name("tiny"), {}, (1,), "flow")
            with pytest.raises(CampaignError, match="docs/FASTPATH.md"):
                expand_campaign(
                    Campaign(name="x", sweep=sweep, engine="flow")
                )
        assert sorted(n for n, f in SWEEPS.items() if "flow" in f.engines) \
            == ["fattree", "fig5", "fig9"]

    def test_malformed_toml_rejected(self):
        with pytest.raises(CampaignError, match="invalid campaign TOML"):
            parse_campaign_text("just words\n", "toml")
        # a quoted boolean must not be coerced to True
        with pytest.raises(CampaignError, match="quick"):
            parse_campaign_text(
                '[campaign]\nname = "x"\nsweep = "fig5"\nquick = "false"\n',
                "toml",
            )

    def test_campaign_hash_ignores_axes_order(self):
        a = tiny_flow_campaign(axes={"variants": ["baseline"], "loads": [0.3]})
        b = tiny_flow_campaign(axes={"loads": [0.3], "variants": ["baseline"]})
        assert a.campaign_hash() == b.campaign_hash()
        assert a.campaign_hash() != tiny_flow_campaign().campaign_hash()


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------


class TestExpansion:
    def test_order_indices_and_keys(self):
        points = expand_campaign(tiny_flow_campaign(seeds=(1, 2)))
        assert [p.index for p in points] == list(range(8))
        assert points[0].key == (1, "baseline", 0.3)
        assert points[4].key == (2, "baseline", 0.3)  # seed-major order

    #: the cycle-only families at micro scale: a sliver of the tiny
    #: preset's windows and the smallest grid each family allows
    MICRO_WINDOWS = {
        "warmup_cycles": 100, "measure_cycles": 200, "drain_cycles": 400,
    }
    MICRO_AXES = {
        "fig6": {"apps": ["MiniFE"], "variants": ["baseline", "stash100"],
                 "size_scale": 1},
        "fig7": {"variants": ["stash100", "reference"]},
        "fig8": {},
        "occupancy": {},
        "ablation": {"speedups": [1.3], "load": 0.2, "littles_loads": [0.2]},
    }

    @pytest.mark.parametrize(
        "sweep, seed",
        [(sweep, seed) for sweep in sorted(SWEEPS) for seed in (1, 7)
         if seed == 1 or "flow" in SWEEPS[sweep].engines],
        ids=lambda value: str(value),
    )
    def test_runner_rows_equal_campaign_rows(self, sweep, seed, tmp_path):
        """What ``repro-experiments <sweep> --quick --seed N`` computes
        in memory is, point for point, what the equivalent campaign
        (``seeds = [N]``) persists and reads back — same cache keys,
        same results, series-valued extras included (tuples in, tuples
        out).  Flow-capable families run their ``--quick`` grid on the
        flow engine; the cycle-only ones a micro grid on the cycle
        engine."""
        from repro.analysis.campaign import campaign_rows

        flow = "flow" in SWEEPS[sweep].engines
        campaign = Campaign(
            name="equiv", sweep=sweep, preset="tiny",
            engine="flow" if flow else "cycle", seeds=(seed,), quick=True,
            axes=dict(QUICK_AXES[sweep] if flow else self.MICRO_AXES[sweep]),
            windows={} if flow else self.MICRO_WINDOWS,
        )
        base = quicken(preset_by_name("tiny"), 0.5)
        if not flow:
            base = base.with_(sim=replace(base.sim, **self.MICRO_WINDOWS))
        rows = run_points(
            expand_sweep(sweep, base, campaign.axes, (seed,), campaign.engine)
        )
        store = ResultStore(tmp_path / "store")
        run_campaign(campaign, store)
        stored = campaign_rows(campaign, store)
        assert rows and len(rows) == len(stored)
        for (point, result), (cached, loaded) in zip(rows, stored):
            assert point.store_key() == cached.store_key()
            if re.search(r"\bnan\b", repr(result)):
                # only fig7 rows: an idle group's stats (the reference
                # has no aggressor traffic) and empty time bins are NaN,
                # unequal to themselves; repr is exact for floats and
                # tells a tuple from a list
                assert sweep == "fig7"
                assert repr(result) == repr(loaded)
            else:
                assert result == loaded
        probed = any(point.spec.probes for point, _ in rows)
        assert probed == any(
            isinstance(value, tuple)
            for _, loaded in stored for _, value in loaded.extras
        )

    def test_one_lowering_and_one_seed_derivation(self):
        """Within ``src/repro`` exactly one ``RunSpec(...)`` binds
        ``scenario_point`` and every point's seed is derived at exactly
        one ``derive_run_seed(`` call site — no experiment has a point
        function or a seed convention of its own.
        """
        package = REPO / "src" / "repro"
        lowerings, derivations = [], []
        for path in sorted(package.rglob("*.py")):
            rel = path.relative_to(package).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None)
                if callee == "derive_run_seed":
                    derivations.append(rel)
                elif callee == "RunSpec" and any(
                    isinstance(sub, ast.Name) and sub.id == "scenario_point"
                    for sub in ast.walk(node)
                ):
                    lowerings.append(rel)
        assert lowerings == ["campaign/spec.py"]
        assert derivations == ["campaign/spec.py"]

    def test_loads_coerced_to_float(self):
        """TOML `1` and `1.0` must label (and therefore seed and hash)
        identically."""
        ints = expand_campaign(
            tiny_flow_campaign(axes={"variants": ["baseline"], "loads": [1]})
        )
        floats = expand_campaign(
            tiny_flow_campaign(axes={"variants": ["baseline"], "loads": [1.0]})
        )
        assert [p.store_key() for p in ints] == [
            p.store_key() for p in floats
        ]

    def test_windows_override_reaches_config(self):
        campaign = tiny_flow_campaign(windows={"measure_cycles": 123})
        assert campaign.base_config().sim.measure_cycles == 123
        plain = tiny_flow_campaign().base_config()
        assert plain.sim.measure_cycles != 123

    def test_store_key_includes_engine_and_schema(self):
        flow = expand_campaign(tiny_flow_campaign())[0]
        cycle = expand_campaign(tiny_flow_campaign(engine="cycle"))[0]
        assert flow.spec.spec_hash() == cycle.spec.spec_hash()
        assert flow.store_key() != cycle.store_key()
        assert flow.store_key()[2] == RESULT_SCHEMA_VERSION

    def test_shards_partition(self):
        points = expand_campaign(tiny_flow_campaign(seeds=(1, 2)))
        s0 = shard_points(points, (0, 3))
        s1 = shard_points(points, (1, 3))
        s2 = shard_points(points, (2, 3))
        got = sorted(p.index for shard in (s0, s1, s2) for p in shard)
        assert got == [p.index for p in points]
        assert shard_points(points, None) == points
        with pytest.raises(CampaignError, match="invalid shard"):
            shard_points(points, (3, 3))


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


def _one_computed_entry(tmp_path):
    """Run a one-point campaign; returns (campaign, store, entry path)."""
    campaign = tiny_flow_campaign(
        axes={"variants": ["baseline"], "loads": [0.3]}
    )
    store = ResultStore(tmp_path / "store")
    run_campaign(campaign, store)
    [path] = store.entry_paths()
    return campaign, store, path


class TestStore:
    def test_round_trip_and_canonical_bytes(self, tmp_path):
        campaign, store, path = _one_computed_entry(tmp_path)
        point = expand_campaign(campaign)[0]
        entry = store.load(point.store_key())
        assert entry is not None
        assert entry.result.engine == "flow"
        assert entry.meta["label"] == point.label
        # bytes are a pure function of (key, result, meta)
        assert path.read_bytes() == encode_entry(
            point.store_key(), entry.result, point_meta(point)
        )

    def test_missing_is_none(self, tmp_path):
        store = ResultStore(tmp_path / "empty")
        key = ("0" * 64, "flow", RESULT_SCHEMA_VERSION)
        assert store.load(key) is None
        assert len(store) == 0

    def test_truncated_entry_is_corrupt(self, tmp_path):
        campaign, store, path = _one_computed_entry(tmp_path)
        point = expand_campaign(campaign)[0]
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CorruptEntryError, match="unreadable"):
            store.load(point.store_key())
        assert store.get(point.store_key()) is None

    def test_bit_flip_is_corrupt(self, tmp_path):
        campaign, store, path = _one_computed_entry(tmp_path)
        point = expand_campaign(campaign)[0]
        raw = bytearray(path.read_bytes())
        pos = raw.index(b'"result"') + 20
        raw[pos] = raw[pos] ^ 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptEntryError):
            store.load(point.store_key())

    def test_misfiled_entry_is_corrupt(self, tmp_path):
        """Valid bytes under the wrong cache key must not be served."""
        campaign, store, path = _one_computed_entry(tmp_path)
        other = ResultStore(tmp_path / "store")
        wrong_key = ("ab" * 32, "flow", RESULT_SCHEMA_VERSION)
        wrong_path = other.path_for(wrong_key)
        wrong_path.parent.mkdir(parents=True, exist_ok=True)
        wrong_path.write_bytes(path.read_bytes())
        with pytest.raises(CorruptEntryError, match="identity"):
            store.load(wrong_key)

    def test_merge_union_and_conflict(self, tmp_path):
        campaign = tiny_flow_campaign()
        full = ResultStore(tmp_path / "full")
        run_campaign(campaign, full)
        half = ResultStore(tmp_path / "half")
        run_campaign(campaign, half, shard=(0, 2))

        merged = tmp_path / "merged"
        copied, identical = merge_stores(
            [tmp_path / "half", tmp_path / "full"], merged
        )
        assert (copied, identical) == (len(full), len(half))
        assert store_bytes(merged) == store_bytes(tmp_path / "full")

        # corrupt one overlapping entry -> conflict refused
        [first, *_] = ResultStore(merged).entry_paths()
        first.write_bytes(first.read_bytes().replace(b"flow", b"wolf", 1))
        with pytest.raises(MergeConflictError, match="different bytes"):
            merge_stores([tmp_path / "full"], merged)


# ----------------------------------------------------------------------
# executor: caching, sharding, batching, the run receipt
# ----------------------------------------------------------------------


class TestRunCampaign:
    def test_second_run_is_all_hits_and_bytes_stable(self, tmp_path):
        campaign = tiny_flow_campaign()
        store = ResultStore(tmp_path / "store")
        first = run_campaign(campaign, store)
        assert (first.hits, first.computed) == (0, 4)
        before = store_bytes(tmp_path / "store")

        second = run_campaign(campaign, store)
        assert (second.hits, second.computed) == (4, 0)
        assert second.hit_rate == 1.0
        assert second.batches == 0
        assert store_bytes(tmp_path / "store") == before
        assert second.total_points == second.shard_points == 4

    def test_corrupt_entry_recomputed_not_served(self, tmp_path):
        campaign = tiny_flow_campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(campaign, store)
        before = store_bytes(tmp_path / "store")
        [path, *_] = store.entry_paths()
        path.write_bytes(b'{"body": "gone"')

        lines: list[str] = []
        summary = run_campaign(campaign, store, progress=lines.append)
        assert summary.corrupt == 1
        assert summary.computed == 1
        assert summary.hits == 3
        assert any("corrupt entry" in line for line in lines)
        # the recomputation restores the exact original bytes
        assert store_bytes(tmp_path / "store") == before

    def test_shards_merge_to_full_run_bytes(self, tmp_path):
        campaign = tiny_flow_campaign(seeds=(1, 2))
        full = ResultStore(tmp_path / "full")
        summary = run_campaign(campaign, full, jobs=2)
        assert summary.computed == 8

        for i in range(2):
            shard_sum = run_campaign(
                campaign, ResultStore(tmp_path / f"s{i}"), shard=(i, 2)
            )
            assert shard_sum.shard_points == 4
        merge_stores([tmp_path / "s0", tmp_path / "s1"], tmp_path / "merged")
        assert store_bytes(tmp_path / "merged") == store_bytes(
            tmp_path / "full"
        )

    def test_batches_bound_admission_not_results(self, tmp_path):
        campaign = tiny_flow_campaign()
        store = ResultStore(tmp_path / "batched")
        summary = run_campaign(campaign, store, batch=1)
        assert summary.batches == 4

        plain = ResultStore(tmp_path / "plain")
        run_campaign(campaign, plain)
        assert store_bytes(tmp_path / "batched") == store_bytes(
            tmp_path / "plain"
        )

    def test_summary_receipt_is_deterministic(self, tmp_path):
        campaign = tiny_flow_campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(campaign, store)
        a = run_campaign(campaign, store).format()
        b = run_campaign(campaign, store).format()
        assert a == b
        assert "cache     100.0%" in a

    def test_seed_siblings_share_one_flow_solve(self, tmp_path, monkeypatch):
        """12 flow points over 3 seeds are 4 fluid problems: 4 solves,
        12 entries, each the bytes its own point computes alone."""
        from repro.engine.fastpath import FlowEngine

        solve = FlowEngine.run
        solved = []
        monkeypatch.setattr(
            FlowEngine, "run",
            lambda self, spec: solved.append(spec) or solve(self, spec),
        )
        campaign = tiny_flow_campaign(seeds=(1, 2, 3))
        store = ResultStore(tmp_path / "serial")
        lines: list[str] = []
        summary = run_campaign(campaign, store, progress=lines.append)
        assert len(solved) == 4
        assert summary.computed == 12
        for point in expand_campaign(campaign):
            key = point.store_key()
            assert store.path_for(key).read_bytes() == encode_entry(
                key, solve(FlowEngine(), point.spec), point_meta(point)
            )
        assert "(2, 'stash25', 0.7) (reuses (1, 'stash25', 0.7))" in "\n".join(
            lines
        )
        assert sum("reuses" in line for line in lines) == 8

        for name, options in (("jobs2", {"jobs": 2}), ("batch1", {"batch": 1})):
            run_campaign(campaign, ResultStore(tmp_path / name), **options)
            assert store_bytes(tmp_path / name) == store_bytes(
                tmp_path / "serial"
            )

    def test_cycle_points_are_never_shared(self, tmp_path, monkeypatch):
        from repro.engine.base import CycleEngine

        simulate = CycleEngine.run
        ran = []
        monkeypatch.setattr(
            CycleEngine, "run",
            lambda self, spec: ran.append(spec) or simulate(self, spec),
        )
        campaign = tiny_flow_campaign(
            engine="cycle", seeds=(1, 2),
            axes={"variants": ["baseline"], "loads": [0.3]},
            windows=TestExpansion.MICRO_WINDOWS,
        )
        summary = run_campaign(campaign, ResultStore(tmp_path / "store"))
        assert summary.computed == 2
        assert [spec.seed for spec in ran] == [
            point.derived_seed for point in expand_campaign(campaign)
        ]

    def test_warm_rerun_hashes_each_spec_once(self, tmp_path, monkeypatch):
        from repro.scenario import ScenarioSpec

        campaign = tiny_flow_campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(campaign, store)
        spec_hash = ScenarioSpec.spec_hash
        hashed = []
        monkeypatch.setattr(
            ScenarioSpec, "spec_hash",
            lambda self: hashed.append(self) or spec_hash(self),
        )
        for sink in (None, [].append):
            del hashed[:]
            summary = run_campaign(campaign, store, progress=sink)
            assert summary.hits == len(hashed) == 4


# ----------------------------------------------------------------------
# report + CLI
# ----------------------------------------------------------------------


class TestReportAndCli:
    def _write_campaign(self, tmp_path) -> Path:
        path = tmp_path / "unit.toml"
        path.write_text(TINY_FLOW_TOML)
        return path

    def test_report_requires_complete_store(self, tmp_path, capsys):
        from repro.analysis.campaign import (
            CampaignReportError,
            campaign_rows,
            format_campaign_report,
        )

        campaign = tiny_flow_campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(campaign, store, shard=(0, 2))
        with pytest.raises(CampaignReportError, match="missing 2 of 4"):
            campaign_rows(campaign, store)

        run_campaign(campaign, store, shard=(1, 2))
        rows = campaign_rows(campaign, store)
        text = format_campaign_report(campaign, rows)
        assert "Campaign report — unit-tiny-flow" in text
        assert "baseline" in text and "stash25" in text
        assert "avg-latency CDF" in text

    def test_cli_run_report_show_merge(self, tmp_path, capsys):
        campaign_file = str(self._write_campaign(tmp_path))
        store = str(tmp_path / "store")

        assert campaign_main(["run", campaign_file, "--store", store]) == 0
        out1 = capsys.readouterr().out
        assert "computed  4" in out1

        # report before completion fails loudly with exit 1
        empty = str(tmp_path / "empty")
        assert (
            campaign_main(["report", campaign_file, "--store", empty]) == 1
        )
        err = capsys.readouterr().err
        assert "missing 4 of 4" in err

        assert campaign_main(["report", campaign_file, "--store", store]) == 0
        report_a = capsys.readouterr().out
        assert "Campaign report" in report_a

        # second run: all hits, and the report bytes are unchanged
        assert campaign_main(["run", campaign_file, "--store", store]) == 0
        assert "hits      4" in capsys.readouterr().out
        campaign_main(["report", campaign_file, "--store", store])
        assert capsys.readouterr().out == report_a

        assert (
            campaign_main(["show", campaign_file, "--store", store]) == 0
        )
        shown = capsys.readouterr().out
        assert shown.count("[cached]") == 4

        merged = str(tmp_path / "merged")
        assert campaign_main(["merge", merged, store, store]) == 0
        assert store_bytes(Path(merged)) == store_bytes(Path(store))

    def test_cli_merge_rejects_a_source_that_is_not_a_store(
        self, tmp_path, capsys
    ):
        """A mistyped shard path must fail the merge (naming the path),
        not yield a silently partial store."""
        campaign_file = str(self._write_campaign(tmp_path))
        store = str(tmp_path / "store")
        assert campaign_main(["run", campaign_file, "--store", store]) == 0
        capsys.readouterr()

        typo = str(tmp_path / "stroe")
        merged = tmp_path / "merged"
        assert campaign_main(["merge", str(merged), store, typo]) == 1
        assert typo in capsys.readouterr().err
        assert not merged.exists()

    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_cli_rejects_batch_below_one(self, tmp_path, batch):
        campaign_file = str(self._write_campaign(tmp_path))
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", campaign_file, "--store", "s", "--batch", batch]
            )

    def test_cli_rejects_bad_shard(self, tmp_path):
        campaign_file = str(self._write_campaign(tmp_path))
        with pytest.raises(SystemExit):
            campaign_main(
                ["run", campaign_file, "--store", "s", "--shard", "2/2"]
            )

    @pytest.mark.parametrize("section, key", [
        ("[axes]\nbogus = [1]", "bogus"),
        ('[axes]\nvariants = ["stash75"]', "variant"),
        ("[windows]\nsample_period = 0", "sample_period"),
        ('[axes]\nloads = "0.2"', "loads"),
    ])
    def test_cli_reports_expansion_errors_without_a_traceback(
        self, tmp_path, section, key
    ):
        """Values only expansion can judge (axis names, variants, window
        ranges, a string where a grid axis wants an array) are still
        campaign-file errors: ``invalid campaign FILE: ...`` naming the
        key, exit status 1 — not a raw ValueError, and never a string
        swept character by character."""
        path = tmp_path / "bad.toml"
        head = TINY_FLOW_TOML.split("[axes]")[0]
        path.write_text(head + section + "\n")
        for argv in (["show", str(path)],
                     ["run", str(path), "--store", str(tmp_path / "s")]):
            with pytest.raises(SystemExit) as exc:
                campaign_main(argv)
            message = exc.value.code  # a str code exits with status 1
            assert message.startswith(f"invalid campaign {path}: ")
            assert key in message


    def test_cli_reports_a_cycle_only_sweep_on_the_flow_engine(
        self, tmp_path
    ):
        path = tmp_path / "fig7_flow.toml"
        path.write_text(
            '[campaign]\nname = "x"\nsweep = "fig7"\nengine = "flow"\n'
        )
        with pytest.raises(SystemExit) as exc:
            campaign_main(["show", str(path)])
        assert exc.value.code.startswith(f"invalid campaign {path}: ")
        assert "'fig7' is cycle-only" in exc.value.code


# ----------------------------------------------------------------------
# resume after SIGKILL
# ----------------------------------------------------------------------


class TestResumeAfterKill:
    CAMPAIGN = REPO / "campaigns" / "resume_smoke.toml"

    def _run(self, store: Path, *extra: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.campaign", "run",
             str(self.CAMPAIGN), "--store", str(store), *extra],
            env=env, cwd=REPO, capture_output=True, text=True,
        )

    def test_sigkill_resume_is_byte_identical(self, tmp_path):
        """Kill a campaign run mid-flight with SIGKILL; the resumed run
        computes only the missing points and the final store and report
        are byte-identical to an uninterrupted run's."""
        baseline = tmp_path / "baseline"
        proc = self._run(baseline)
        assert proc.returncode == 0, proc.stderr
        total = len(store_bytes(baseline))
        assert total == 4

        killed = tmp_path / "killed"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "run",
             str(self.CAMPAIGN), "--store", str(killed)],
            env=env, cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(store_bytes(killed)) >= 1:
                    break
                if victim.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                time.sleep(0.05)
            victim.send_signal(signal.SIGKILL)
            assert victim.wait(timeout=30) == -signal.SIGKILL
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)

        partial = store_bytes(killed)
        assert 1 <= len(partial) < total
        # every surviving entry is already byte-identical (atomic writes)
        full = store_bytes(baseline)
        for rel, data in partial.items():
            assert full[rel] == data

        resume = self._run(killed)
        assert resume.returncode == 0, resume.stderr
        assert f"hits      {len(partial)}" in resume.stdout
        assert f"computed  {total - len(partial)}" in resume.stdout
        assert store_bytes(killed) == full

        # and the rendered reports agree byte-for-byte
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        reports = [
            subprocess.run(
                [sys.executable, "-m", "repro.campaign", "report",
                 str(self.CAMPAIGN), "--store", str(s)],
                env=env, cwd=REPO, capture_output=True, text=True,
            )
            for s in (baseline, killed)
        ]
        assert all(r.returncode == 0 for r in reports)
        assert reports[0].stdout == reports[1].stdout
