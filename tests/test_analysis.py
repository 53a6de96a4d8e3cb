"""Tests for the invariant linter (``repro.analysis``).

Every shipped rule gets two fixtures — one that fires and one that stays
quiet — plus pragma-suppression, JSON round-trip, registry, and CLI
exit-code coverage, and an acceptance probe against the *real* tree:
adding ``np.dot`` to an env kernel must fail lint.

Fixture files are written under ``tmp_path`` at paths that mirror the repo
layout (``src/repro/envs/...``), because rules scope themselves by posix
path fragments.  Pragma text inside fixtures is built by string
concatenation so the linter's lexical pragma scanner can never match this
test file's own source.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    PRAGMA_RULE_ID,
    RULES,
    AnalysisReport,
    BatchInvariantKernels,
    ConfigCliParity,
    DeterministicOracles,
    Finding,
    HotPathDiscipline,
    LockDiscipline,
    PrecisionPolicyParity,
    Rule,
    SeedingScheme,
    analyze,
    register_rule,
    resolve_rules,
    scan_pragmas,
)
from repro.analysis.__main__ import main as lint_main

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Pragma prefix, concatenated so the pragma regex never matches this file.
ALLOW = "# repro-lint" + ": allow"

#: Hot-path marker, concatenated so the rule's lexical scanner never
#: mistakes this test file's own source for an annotated hot function.
HOT = "# repro-lint" + ": hot"


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _lint(root: Path, rule: Rule) -> AnalysisReport:
    return analyze([str(root)], rules=[rule])


# --------------------------------------------------------------------- #
# Rule 1: batch-invariant-kernels
# --------------------------------------------------------------------- #
class TestBatchInvariantKernels:
    def test_fires_on_blas_calls_and_the_matmul_operator(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/envs/kernel.py",
            """\
            import numpy as np

            def step(state, action, weights):
                q = np.dot(state, weights)
                torque = np.einsum("ij,j->i", weights, action)
                return q + weights @ action
            """,
        )
        report = _lint(tmp_path, BatchInvariantKernels())
        assert [f.rule for f in report.findings] == ["batch-invariant-kernels"] * 3
        assert {f.line for f in report.findings} == {4, 5, 6}
        assert all(f.severity == "error" for f in report.findings)
        assert report.exit_code() == 1

    def test_quiet_on_elementwise_kernels(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/envs/kernel.py",
            """\
            import numpy as np

            def step(state, action):
                return np.sum(state * action, axis=-1)
            """,
        )
        assert _lint(tmp_path, BatchInvariantKernels()).findings == []

    def test_quiet_outside_the_envs_layer(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/nn/ops.py",
            """\
            import numpy as np

            def forward(x, w):
                return np.dot(x, w)
            """,
        )
        assert _lint(tmp_path, BatchInvariantKernels()).findings == []


# --------------------------------------------------------------------- #
# Rule 2: deterministic-oracles
# --------------------------------------------------------------------- #
class TestDeterministicOracles:
    FIRING = """\
    import random
    import time

    import numpy as np

    def price():
        start = time.perf_counter()
        jitter = random.random()
        noise = np.random.rand(3)
        rng = np.random.default_rng()
        return start, jitter, noise, rng
    """

    def test_fires_on_wall_clock_and_global_randomness(self, tmp_path):
        _write(tmp_path, "src/repro/platform/timing.py", self.FIRING)
        report = _lint(tmp_path, DeterministicOracles())
        assert [f.rule for f in report.findings] == ["deterministic-oracles"] * 4
        assert {f.line for f in report.findings} == {7, 8, 9, 10}

    def test_fires_in_the_accelerator_layer_too(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/accelerator/sim.py",
            """\
            import time

            def tick():
                return time.monotonic()
            """,
        )
        report = _lint(tmp_path, DeterministicOracles())
        assert len(report.findings) == 1
        assert "monotonic" in report.findings[0].message

    def test_fires_in_the_serving_layer_too(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serving/batcher.py",
            """\
            import time

            def flush_clock():
                return time.perf_counter()
            """,
        )
        report = _lint(tmp_path, DeterministicOracles())
        assert len(report.findings) == 1
        assert "perf_counter" in report.findings[0].message

    def test_quiet_on_seeded_generators(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/platform/timing.py",
            """\
            import numpy as np

            def price(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
            """,
        )
        assert _lint(tmp_path, DeterministicOracles()).findings == []

    def test_quiet_outside_the_oracle_layers(self, tmp_path):
        _write(tmp_path, "src/repro/rl/loop.py", self.FIRING)
        assert _lint(tmp_path, DeterministicOracles()).findings == []


# --------------------------------------------------------------------- #
# Rule 3: lock-discipline
# --------------------------------------------------------------------- #
class TestLockDiscipline:
    def test_fires_on_unlocked_buffer_mutations(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/replay_buffer.py",
            """\
            import threading

            class ReplayBuffer:
                def __init__(self, capacity):
                    self._lock = threading.Lock()
                    self._size = 0
                    self._states = [None] * capacity

                def add(self, index, item):
                    self._states[index] = item
                    self._size += 1

                def clear(self):
                    with self._lock:
                        self._size = 0
            """,
        )
        report = _lint(tmp_path, LockDiscipline())
        assert [f.rule for f in report.findings] == ["lock-discipline"] * 2
        assert {f.line for f in report.findings} == {10, 11}
        assert "_states" in report.findings[0].message

    def test_quiet_when_mutations_hold_the_lock(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/replay_buffer.py",
            """\
            import threading

            class ReplayBuffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._size = 0

                def add(self, item):
                    with self._lock:
                        if item is not None:
                            self._size += 1

                def size(self):
                    with self._lock:
                        return self._size
            """,
        )
        assert _lint(tmp_path, LockDiscipline()).findings == []

    def test_fires_on_unlocked_request_queue_mutations(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serving/request_queue.py",
            """\
            import threading

            class RequestQueue:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._requests = []

                def enqueue(self, request):
                    self._requests.append(request)
                    self._enqueued = len(self._requests)
            """,
        )
        report = _lint(tmp_path, LockDiscipline())
        assert [f.rule for f in report.findings] == ["lock-discipline"]
        assert "_enqueued" in report.findings[0].message
        assert "RequestQueue" in report.findings[0].message

    def test_quiet_when_request_queue_holds_the_lock(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serving/request_queue.py",
            """\
            import threading

            class RequestQueue:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._enqueued = 0

                def enqueue(self, request):
                    with self._lock:
                        self._enqueued += 1
            """,
        )
        assert _lint(tmp_path, LockDiscipline()).findings == []

    def test_quiet_on_other_classes(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/ring.py",
            """\
            class RingBuffer:
                def add(self, item):
                    self._size += 1
            """,
        )
        assert _lint(tmp_path, LockDiscipline()).findings == []


# --------------------------------------------------------------------- #
# Rule 4: seeding-scheme
# --------------------------------------------------------------------- #
class TestSeedingScheme:
    def test_fires_on_inline_worker_seed_arithmetic(self, tmp_path):
        _write(
            tmp_path,
            "examples/run.py",
            """\
            def build(args):
                return args.seed + args.worker_id * args.num_envs
            """,
        )
        report = _lint(tmp_path, SeedingScheme())
        assert [f.rule for f in report.findings] == ["seeding-scheme"]
        assert report.findings[0].severity == "warning"

    def test_warnings_fail_only_under_strict(self, tmp_path):
        _write(
            tmp_path,
            "examples/run.py",
            "value = seed + num_workers * num_envs\n",
        )
        report = _lint(tmp_path, SeedingScheme())
        assert len(report.findings) == 1
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_quiet_inside_the_blessed_helper(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/workers.py",
            """\
            def worker_env_seed(seed, worker_id, num_envs):
                return seed + worker_id * num_envs
            """,
        )
        assert _lint(tmp_path, SeedingScheme()).findings == []

    def test_quiet_on_plain_seed_offsets(self, tmp_path):
        _write(tmp_path, "examples/run.py", "eval_seed = seed + 1\n")
        assert _lint(tmp_path, SeedingScheme()).findings == []


# --------------------------------------------------------------------- #
# Rule 5: config-cli-parity
# --------------------------------------------------------------------- #
CLI_FIXTURE = """\
import argparse

CONFIG_FLAG_ALIASES = {"total_timesteps": "--timesteps"}
CONFIG_FIELDS_WITHOUT_FLAGS = {"exploration_noise": "paper constant"}

def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--timesteps", type=int)
    parser.add_argument("--batch-size", type=int)
    return parser
"""

SERVING_CLI_FIXTURE = """\
import argparse

SERVING_FLAG_ALIASES = {"num_requests": "--requests", "slo_seconds": "--slo-ms"}
SERVING_FIELDS_WITHOUT_FLAGS = {"timeout_seconds": "derived from --slo-ms"}

def build_serve_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", type=int)
    parser.add_argument("--qps", type=float)
    parser.add_argument("--slo-ms", type=float)
    parser.add_argument("--batch-cap", type=int)
    return parser
"""


class TestConfigCliParity:
    def _config(self, extra_field: str = "") -> str:
        return textwrap.dedent(
            """\
            from dataclasses import dataclass

            @dataclass
            class TrainingConfig:
                total_timesteps: int = 10_000
                batch_size: int = 64
                exploration_noise: float = 0.1
            """
        ) + (f"    {extra_field}\n" if extra_field else "")

    def test_quiet_when_every_field_is_covered(self, tmp_path):
        _write(tmp_path, "src/repro/rl/training.py", self._config())
        _write(tmp_path, "src/repro/cli.py", CLI_FIXTURE)
        assert _lint(tmp_path, ConfigCliParity()).findings == []

    def test_fires_on_an_unreachable_config_field(self, tmp_path):
        _write(tmp_path, "src/repro/rl/training.py", self._config("seed: int = 1"))
        _write(tmp_path, "src/repro/cli.py", CLI_FIXTURE)
        report = _lint(tmp_path, ConfigCliParity())
        assert [f.rule for f in report.findings] == ["config-cli-parity"]
        finding = report.findings[0]
        assert finding.file.endswith("training.py")
        assert "--seed" in finding.message

    def test_fires_on_stale_exclusion_entries(self, tmp_path):
        _write(tmp_path, "src/repro/rl/training.py", self._config())
        stale = CLI_FIXTURE.replace(
            '{"exploration_noise": "paper constant"}',
            '{"exploration_noise": "paper constant", "ghost": "gone"}',
        )
        _write(tmp_path, "src/repro/cli.py", stale)
        report = _lint(tmp_path, ConfigCliParity())
        assert len(report.findings) == 1
        assert "stale exclusion" in report.findings[0].message
        assert report.findings[0].file.endswith("cli.py")

    def _serving_config(self, extra_field: str = "") -> str:
        return textwrap.dedent(
            """\
            from dataclasses import dataclass

            @dataclass
            class ServingConfig:
                num_requests: int = 512
                qps: float = 2000.0
                slo_seconds: float = 0.02
                timeout_seconds: float = None
            """
        ) + (f"    {extra_field}\n" if extra_field else "")

    def test_quiet_when_every_serving_field_is_covered(self, tmp_path):
        _write(tmp_path, "src/repro/serving/server.py", self._serving_config())
        _write(tmp_path, "src/repro/cli.py", SERVING_CLI_FIXTURE)
        assert _lint(tmp_path, ConfigCliParity()).findings == []

    def test_fires_on_an_unreachable_serving_field(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/serving/server.py",
            self._serving_config("placement: str = 'colocated'"),
        )
        _write(tmp_path, "src/repro/cli.py", SERVING_CLI_FIXTURE)
        report = _lint(tmp_path, ConfigCliParity())
        assert [f.rule for f in report.findings] == ["config-cli-parity"]
        finding = report.findings[0]
        assert finding.file.endswith("server.py")
        assert "--placement" in finding.message

    def test_both_specs_checked_in_one_scan(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/training.py",
            self._config("train_only: int = 1"),
        )
        _write(
            tmp_path,
            "src/repro/serving/server.py",
            self._serving_config("serve_only: int = 2"),
        )
        combined = CLI_FIXTURE + SERVING_CLI_FIXTURE.split("import argparse\n")[1]
        _write(tmp_path, "src/repro/cli.py", combined)
        report = _lint(tmp_path, ConfigCliParity())
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert any("--train-only" in message for message in messages)
        assert any("--serve-only" in message for message in messages)


# --------------------------------------------------------------------- #
# Rule 6: precision-policy-parity
# --------------------------------------------------------------------- #
PRECISION_FIXTURE = """\
PRECISION_POLICIES = {}

def register_precision_policy(cls):
    PRECISION_POLICIES[cls.name] = cls
    return cls

class PrecisionPolicy:
    name = ""

@register_precision_policy
class GlobalSwitchPolicy(PrecisionPolicy):
    name = "global-switch"
"""


class TestPrecisionPolicyParity:
    def test_quiet_when_every_subclass_is_registered(self, tmp_path):
        _write(tmp_path, "src/repro/rl/precision.py", PRECISION_FIXTURE)
        assert _lint(tmp_path, PrecisionPolicyParity()).findings == []

    def test_fires_on_an_unregistered_subclass(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/precision.py",
            PRECISION_FIXTURE
            + textwrap.dedent(
                """\

                class RogueSchedulePolicy(PrecisionPolicy):
                    name = "rogue"
                """
            ),
        )
        report = _lint(tmp_path, PrecisionPolicyParity())
        assert [f.rule for f in report.findings] == ["precision-policy-parity"]
        finding = report.findings[0]
        assert "RogueSchedulePolicy" in finding.message
        assert "register_precision_policy" in finding.message

    def test_fires_on_a_transitive_subclass_in_a_sibling_module(self, tmp_path):
        _write(tmp_path, "src/repro/rl/precision.py", PRECISION_FIXTURE)
        _write(
            tmp_path,
            "src/repro/rl/extras.py",
            """\
            from .precision import GlobalSwitchPolicy

            class DerivedPolicy(GlobalSwitchPolicy):
                name = "derived"
            """,
        )
        report = _lint(tmp_path, PrecisionPolicyParity())
        assert [f.rule for f in report.findings] == ["precision-policy-parity"]
        assert report.findings[0].file.endswith("extras.py")

    def test_private_helpers_and_out_of_scope_classes_are_ignored(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/precision.py",
            PRECISION_FIXTURE
            + textwrap.dedent(
                """\

                class _TestOnlyPolicy(PrecisionPolicy):
                    name = "test-only"
                """
            ),
        )
        _write(
            tmp_path,
            "src/repro/platform/shim.py",
            """\
            class PrecisionPolicy:
                pass

            class UnrelatedPolicy(PrecisionPolicy):
                pass
            """,
        )
        assert _lint(tmp_path, PrecisionPolicyParity()).findings == []


# --------------------------------------------------------------------- #
# Rule 7: hot-path-discipline
# --------------------------------------------------------------------- #
class TestHotPathDiscipline:
    def test_fires_on_arange_dicts_and_attribute_chains(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/hot.py",
            """\
            import numpy as np

            class Engine:
                MARKER
                def step(self, n):
                    rows = np.arange(n)
                    info = {"rows": rows}
                    dim = self.env.action_space.dim
                    return rows, info, dim
            """.replace("MARKER", HOT),
        )
        report = _lint(tmp_path, HotPathDiscipline())
        assert [f.rule for f in report.findings] == ["hot-path-discipline"] * 3
        assert all(f.severity == "warning" for f in report.findings)
        messages = " | ".join(f.message for f in report.findings)
        assert "np.arange" in messages
        assert "dict construction" in messages
        assert "self.env.action_space.dim" in messages
        # Warnings gate CI only under --strict.
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_marker_on_the_def_line_also_counts(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/envs/hot.py",
            """\
            import numpy as np

            def observe(n):  MARKER
                return np.arange(n)
            """.replace("MARKER", HOT),
        )
        report = _lint(tmp_path, HotPathDiscipline())
        assert [f.rule for f in report.findings] == ["hot-path-discipline"]

    def test_outermost_chain_reported_once_and_locals_are_fine(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/hot.py",
            """\
            class Engine:
                MARKER
                def step(self):
                    # A three-deep chain is one finding, not two, and
                    # two-segment self.attr loads plus chains rooted at
                    # locals are the blessed spellings.
                    deep = self.env.space.dim
                    env = self.env
                    ok = env.space.dim
                    return deep + ok + self.total
            """.replace("MARKER", HOT),
        )
        report = _lint(tmp_path, HotPathDiscipline())
        assert len(report.findings) == 1
        assert "self.env.space.dim" in report.findings[0].message

    def test_quiet_without_the_marker(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/cold.py",
            """\
            import numpy as np

            class Engine:
                def finish(self, n):
                    final = {"rows": np.arange(n)}
                    return final, self.env.space.dim
            """,
        )
        assert _lint(tmp_path, HotPathDiscipline()).findings == []

    def test_quiet_on_a_disciplined_hot_function(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/rl/hot.py",
            """\
            class Engine:
                def __init__(self, n):
                    import numpy as np
                    self._rows = np.arange(n)

                MARKER
                def step(self, dones):
                    rows = self._rows
                    prof = self.profiler
                    return rows[dones], prof
            """.replace("MARKER", HOT),
        )
        assert _lint(tmp_path, HotPathDiscipline()).findings == []


# --------------------------------------------------------------------- #
# Pragma suppression
# --------------------------------------------------------------------- #
class TestPragmas:
    def test_justified_pragma_suppresses_the_line_below(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/platform/cal.py",
            "import time\n\n"
            + ALLOW
            + "[deterministic-oracles]: fixture measures a real clock on purpose\n"
            "start = time.perf_counter()\n",
        )
        report = _lint(tmp_path, DeterministicOracles())
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["deterministic-oracles"]
        assert report.exit_code(strict=True) == 0

    def test_justified_inline_pragma_suppresses_its_own_line(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/platform/cal.py",
            "import time\n\nstart = time.perf_counter()  "
            + ALLOW
            + "[deterministic-oracles]: inline fixture exception\n",
        )
        report = _lint(tmp_path, DeterministicOracles())
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_unjustified_pragma_suppresses_nothing_and_is_itself_a_finding(
        self, tmp_path
    ):
        _write(
            tmp_path,
            "src/repro/platform/cal.py",
            "import time\n\n"
            + ALLOW
            + "[deterministic-oracles]\n"
            "start = time.perf_counter()\n",
        )
        report = _lint(tmp_path, DeterministicOracles())
        assert report.suppressed == []
        assert sorted(f.rule for f in report.findings) == [
            "deterministic-oracles",
            PRAGMA_RULE_ID,
        ]
        meta = next(f for f in report.findings if f.rule == PRAGMA_RULE_ID)
        assert meta.severity == "error"
        assert "justification" in meta.message

    def test_pragma_only_covers_its_own_rule(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/platform/cal.py",
            "import time\n\n"
            + ALLOW
            + "[batch-invariant-kernels]: wrong rule id\n"
            "start = time.perf_counter()\n",
        )
        report = _lint(tmp_path, DeterministicOracles())
        assert [f.rule for f in report.findings] == ["deterministic-oracles"]
        assert report.suppressed == []

    def test_scan_pragmas_parses_both_separators(self):
        source = (
            ALLOW + "[rule-a]: colon justification\n"
            + ALLOW + "[rule-b] -- dash justification\n"
        )
        pragmas = scan_pragmas(source)
        assert [(p.rule, p.justification, p.valid) for p in pragmas] == [
            ("rule-a", "colon justification", True),
            ("rule-b", "dash justification", True),
        ]


# --------------------------------------------------------------------- #
# Findings and JSON round-trip
# --------------------------------------------------------------------- #
class TestFindingsAndJson:
    def test_finding_round_trips_through_dict_and_json(self):
        finding = Finding(
            file="src/repro/envs/kernel.py",
            line=7,
            rule="batch-invariant-kernels",
            severity="error",
            message="np.dot() in an env kernel",
        )
        assert Finding.from_dict(json.loads(json.dumps(finding.to_dict()))) == finding
        assert finding.render() == (
            "src/repro/envs/kernel.py:7: error[batch-invariant-kernels] "
            "np.dot() in an env kernel"
        )

    def test_finding_rejects_bad_severity_and_line(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(file="x.py", line=1, rule="r", severity="fatal", message="m")
        with pytest.raises(ValueError, match="line"):
            Finding(file="x.py", line=0, rule="r", severity="error", message="m")

    def test_report_round_trips_through_json(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/envs/kernel.py",
            "import numpy as np\n\nq = np.dot([1.0], [1.0])\n",
        )
        report = _lint(tmp_path, BatchInvariantKernels())
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = [Finding.from_dict(entry) for entry in payload["findings"]]
        assert rebuilt == report.findings
        assert payload["rules"] == ["batch-invariant-kernels"]
        assert payload["files"] == report.files

    def test_cli_json_output_is_the_report_object(self, tmp_path, capsys):
        _write(
            tmp_path,
            "src/repro/envs/kernel.py",
            "import numpy as np\n\nq = np.dot([1.0], [1.0])\n",
        )
        code = lint_main(["--format", "json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["batch-invariant-kernels"]
        assert payload["findings"][0]["severity"] == "error"


# --------------------------------------------------------------------- #
# Rule registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_all_seven_rules_are_registered(self):
        assert sorted(RULES) == [
            "batch-invariant-kernels",
            "config-cli-parity",
            "deterministic-oracles",
            "hot-path-discipline",
            "lock-discipline",
            "precision-policy-parity",
            "seeding-scheme",
        ]

    def test_resolve_rules_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="batch-invariant-kernels"):
            resolve_rules(["no-such-rule"])

    def test_resolve_rules_selects_a_subset(self):
        rules = resolve_rules(["lock-discipline"])
        assert [r.rule_id for r in rules] == ["lock-discipline"]

    def test_register_rule_rejects_duplicates_and_empty_ids(self):
        class Duplicate(Rule):
            rule_id = "lock-discipline"

        class Anonymous(Rule):
            rule_id = ""

        with pytest.raises(ValueError, match="duplicate"):
            register_rule(Duplicate)
        with pytest.raises(ValueError, match="non-empty"):
            register_rule(Anonymous)
        # The failed registrations left the registry untouched.
        assert RULES["lock-discipline"] is LockDiscipline


# --------------------------------------------------------------------- #
# CLI exit codes
# --------------------------------------------------------------------- #
class TestCliExitCodes:
    def test_text_output_renders_findings_and_a_summary(self, tmp_path, capsys):
        _write(
            tmp_path,
            "src/repro/envs/kernel.py",
            "import numpy as np\n\nq = np.dot([1.0], [1.0])\n",
        )
        code = lint_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "error[batch-invariant-kernels]" in out
        assert "1 finding" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/envs/kernel.py", "x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "no-such-dir")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        assert lint_main(["--rule", "bogus", str(tmp_path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_prints_every_rule_id(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out


# --------------------------------------------------------------------- #
# The repo tree itself is clean (the CI gate, pinned as a test)
# --------------------------------------------------------------------- #
class TestRepoTreeIsClean:
    PATHS = [str(REPO_ROOT / part) for part in ("src", "benchmarks", "examples")]

    def test_analyze_finds_no_unsuppressed_violations(self):
        report = analyze(self.PATHS)
        assert report.findings == []
        # The known, reviewed exceptions (wall-clock calibration/co-sim
        # measurements) are suppressed by justified pragmas, not silent.
        assert report.suppressed
        assert all(f.rule == "deterministic-oracles" for f in report.suppressed)

    def test_strict_cli_run_exits_zero(self, capsys):
        assert lint_main(["--strict", *self.PATHS]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out
        assert "suppressed" in out


# --------------------------------------------------------------------- #
# Acceptance probes against the real sources
# --------------------------------------------------------------------- #
class TestRealTreeAcceptance:
    def test_adding_np_dot_to_an_env_kernel_fails_lint(self, tmp_path):
        target = tmp_path / "src" / "repro" / "envs"
        target.mkdir(parents=True)
        for source in (REPO_ROOT / "src" / "repro" / "envs").glob("*.py"):
            (target / source.name).write_text(source.read_text())
        assert _lint(tmp_path, BatchInvariantKernels()).findings == []

        probe = sorted(target.glob("*.py"))[-1]
        probe.write_text(
            probe.read_text() + "\n\ndef _lint_probe(a, b):\n    return np.dot(a, b)\n"
        )
        report = _lint(tmp_path, BatchInvariantKernels())
        assert [f.rule for f in report.findings] == ["batch-invariant-kernels"]
        assert report.exit_code() == 1
