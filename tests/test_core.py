import json
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabc.core import (
    DatasetFormatError,
    DatasetWriter,
    LabeledPool,
    Outcome,
    TerminationReason,
    Trajectory,
    clamp_action,
    load_dataset,
    save_dataset,
    state_row,
)
from cabc.trainer import _SampleStore

from conftest import (
    make_state,
    make_trajectory,
    same_trajectories,
    states_array,
    write_trajectories,
)


class TestTypes:
    def test_state_requires_finite(self):
        with pytest.raises(ValueError, match="v_long must be finite, got nan"):
            state_row((float("nan"), 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="s must be finite, got inf"):
            state_row((0, 0, 0, float("inf"), 0, 0))
        with pytest.raises(ValueError, match="expected 6 state components, got 7"):
            state_row([0.0] * 7)

    def test_action_bounds(self, tmp_path):
        # the closed loop clamps an action into the box; the loader refuses one outside it
        assert clamp_action(3.0, -7.0) == (1.0, -1.0)
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(2, Outcome.SUCCESS)], path)
        header, first, second = (json.loads(line) for line in path.read_text().splitlines())
        for field, u, message in [
                ("u_expert", [1.2, 0.0], "u_a out of [-1, 1]: 1.2"),
                ("u_applied", [0.0, -1.0001], "u_steer out of [-1, 1]: -1.0001"),
                ("u_expert", [math.inf, 0.0], "u_a must be finite, got inf"),
                ("u_applied", [0.0, math.nan], "u_steer must be finite, got nan"),
                ("u_applied", [0.0], "expected 2 action components, got 1")]:
            lines = (header, first, dict(second, **{field: u}))
            path.write_text("".join(json.dumps(r) + "\n" for r in lines))
            with pytest.raises(DatasetFormatError, match=re.escape(message)) as err:
                load_dataset(path)
            assert err.value.line_no == 3

    def test_clamped_rejects_non_finite(self):
        # max(-1.0, nan) is -1.0: clipping must not turn nan into a full command
        with pytest.raises(ValueError, match="u_a must be finite"):
            clamp_action(float("nan"), 0.3)
        with pytest.raises(ValueError, match="u_steer must be finite"):
            clamp_action(0.3, float("-inf"))
        with pytest.raises(ValueError, match="u_a must be finite"):
            clamp_action(float("inf"), 0.0)

    @pytest.mark.parametrize("reason", list(TerminationReason))
    def test_trajectory_outcome_follows_its_reason(self, reason):
        traj = replace(make_trajectory(2, Outcome.SUCCESS), termination_reason=reason)
        success = reason is TerminationReason.REACHED_TARGET
        assert traj.outcome is (Outcome.SUCCESS if success else Outcome.FAILURE)

    @pytest.mark.parametrize("name, shape", [("states", (3, 6)), ("u_expert", (2, 2)),
                                             ("u_applied", (3,)), ("states", (4, 6, 1)),
                                             ("y", (2, 5))])
    def test_trajectory_rejects_misshapen_rows(self, name, shape):
        traj = make_trajectory(3, Outcome.FAILURE)
        with pytest.raises(ValueError, match=f"{name} has shape"):
            replace(traj, **{name: np.zeros(shape)})


def store_of(*batches):
    """The trainer's sample store after recording each batch of trajectories."""
    store = _SampleStore(n_feats=5)   # make_trajectory observes 3 velocities and 2 previews
    for trajs in batches:
        store.add_trajectories(trajs, "output", track=None)   # no track in output mode
    return store


def pools(trajs):
    """The trainer's labeling pools over ``trajs``: the D+ and D_query states."""
    store = store_of(trajs)
    plus, query = store.pools()
    return store.states[plus], store.states[query]


class TestPartition:
    def test_basic_partition(self):
        plus, query = pools([
            make_trajectory(10, Outcome.SUCCESS),
            make_trajectory(4, Outcome.FAILURE),
        ])
        assert (plus.shape, query.shape) == ((10, 6), (4, 6))

    def test_empty_input(self):
        plus, query = pools([])
        assert (plus.shape, query.shape) == ((0, 6), (0, 6))

    def test_success_only_leaves_query_empty(self):
        plus, query = pools([make_trajectory(3, Outcome.SUCCESS)] * 3)
        assert (plus.shape, query.shape) == ((9, 6), (0, 6))

    def test_rejects_empty_trajectory(self):
        with pytest.raises(ValueError, match="zero steps"):
            pools([make_trajectory(0, Outcome.FAILURE)])

    @given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_partition_exhaustive_and_disjoint(self, spec):
        trajs = [make_trajectory(n, Outcome.SUCCESS if ok else Outcome.FAILURE,
                                 start=float(10 * i))
                 for i, (n, ok) in enumerate(spec)]
        plus, query = pools(trajs)
        # every visited state lands in the pool of its rollout's outcome, in visit order
        for rows, outcome in ((plus, Outcome.SUCCESS), (query, Outcome.FAILURE)):
            states = [t.states[:-1] for t in trajs if t.outcome is outcome]
            assert np.array_equal(rows, np.concatenate(states) if states else np.zeros((0, 6)))

    def test_store_holds_each_visited_state_once(self):
        first = [make_trajectory(3, Outcome.SUCCESS),
                 make_trajectory(2, Outcome.FAILURE, start=9.0)]
        second = [make_trajectory(4, Outcome.FAILURE, start=20.0)]
        store = store_of(first, second)
        trajs = first + second
        assert len(store) == sum(map(len, trajs)) == 9
        assert len(store.states) == len(store) + len(trajs)
        steps = np.cumsum([0] + [len(t) for t in trajs])
        for traj, lo, hi in zip(trajs, steps, steps[1:]):
            rows = store.rows[lo:hi]
            assert np.array_equal(store.states[rows], traj.states[:-1])
            assert np.array_equal(store.u_applied[lo:hi], traj.u_applied)
            assert np.array_equal(store.states[rows + 1], traj.states[1:])


def plus_only(plus: np.ndarray) -> LabeledPool:
    return LabeledPool(d_plus=plus, d_query=np.zeros((0, 6)), minus=np.zeros(0, dtype=bool))


class TestPersistence:
    def test_trajectory_round_trip(self, tmp_path):
        trajs = [make_trajectory(3, Outcome.SUCCESS),
                 make_trajectory(2, Outcome.FAILURE, start=9.0)]
        path = tmp_path / "data.jsonl"
        write_trajectories(trajs, path)
        assert same_trajectories(load_dataset(path), trajs)

    def test_gzip_round_trip(self, tmp_path):
        trajs = [make_trajectory(4, Outcome.FAILURE)]
        path = tmp_path / "data.jsonl.gz"
        write_trajectories(trajs, path)
        assert same_trajectories(load_dataset(path), trajs)

    def test_gzip_header_carries_no_clock(self, tmp_path, monkeypatch):
        # the header's MTIME field (bytes 4-8) stays zero whatever the clock reads
        monkeypatch.setattr(time, "time", lambda: 1.6e9)
        traj = make_trajectory(2, Outcome.SUCCESS)
        save_dataset(plus_only(states_array([make_state()])), tmp_path / "pool.jsonl.gz")
        write_trajectories([traj], tmp_path / "written.jsonl.gz")
        for name in ("pool", "written"):
            assert (tmp_path / f"{name}.jsonl.gz").read_bytes()[4:8] == bytes(4), name

    def test_pool_round_trip(self, tmp_path):
        pool = LabeledPool(
            d_plus=states_array([make_state(v=1.5, s=2.0)]),
            d_query=states_array([make_state(v=0.5, s=1.0), make_state(v=0.7, s=3.0)]),
            minus=np.array([True, False]),
        )
        path = tmp_path / "pool.jsonl"
        save_dataset(pool, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, LabeledPool)
        assert np.array_equal(loaded.d_plus, pool.d_plus)
        assert np.array_equal(loaded.d_query, pool.d_query)
        assert loaded.minus.dtype == bool
        assert np.array_equal(loaded.minus, pool.minus)

    @pytest.mark.parametrize("value", ["no", 7, -1, True, 1.0, None])
    def test_pool_minus_other_than_0_or_1_reports_line(self, tmp_path, value):
        path = tmp_path / "pool.jsonl"
        save_dataset(LabeledPool(d_plus=np.zeros((0, 6)), d_query=np.zeros((2, 6)),
                                 minus=np.array([True, False])), path)
        first, second = (json.loads(line) for line in path.read_text().splitlines())
        second["minus"] = value
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match="minus must be 0 or 1") as err:
            load_dataset(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("x, message", [
        ([0, 0, 0], "expected 6 state components, got 3"),
        ([0, 0, 0, 0, 0, "z"], "could not convert string to float: 'z'"),
        ([0, 0, 0, 0, 0, None], "float"),
        (7, "not iterable"),
    ], ids=["short", "string", "null", "number"])
    def test_pool_state_that_is_not_a_state_reports_line(self, tmp_path, x, message):
        path = tmp_path / "pool.jsonl"
        save_dataset(plus_only(states_array([make_state(), make_state(v=2.0)])), path)
        first, second = (json.loads(line) for line in path.read_text().splitlines())
        second["x"] = x
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match=message) as err:
            load_dataset(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("y, message", [
        ([1.0, 0.0], "expected at least 3 observation components, got 2"),
        ([], "expected at least 3 observation components, got 0"),
        ([math.nan, 0.0, 0.0, 0.5, 0.5], "v_long must be finite"),
        ([1.0, 0.0, math.nan, 0.5, 0.5], "omega_psi must be finite"),
        ([1.0, 0.0, 0.0, 0.5, math.nan], "preview must be finite"),
        ([1.0, 0.0, 0.0, -math.inf, 0.5], "preview must be finite"),
        ([1.0, 0.0, 0.0, "z", 0.5], "could not convert"),
    ], ids=["two", "none", "nan_v_long", "nan_omega", "nan_preview", "inf_preview", "string"])
    def test_sample_observation_that_is_not_a_row_reports_line(self, tmp_path, y, message):
        path, (header, first, second) = self._saved_lines(tmp_path)
        second["y"] = y
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match=message) as err:
            load_dataset(path)
        assert err.value.line_no == 3

    def test_writer_refuses_unobserved_trajectory(self, tmp_path):
        # evaluation rollouts of state-feedback policies skip the output map (y=None)
        blind = replace(make_trajectory(3, Outcome.FAILURE), y=None)
        path = tmp_path / "data.jsonl"
        with DatasetWriter(path) as writer:
            with pytest.raises(ValueError, match="y is None"):
                writer.write(blind)
            assert writer.write(make_trajectory(1, Outcome.SUCCESS)) == 0
        assert [t.y.shape for t in load_dataset(path)] == [(1, 5)]

    def test_file_keys_are_the_documented_ones(self, tmp_path):
        path, (header, first, second) = self._saved_lines(tmp_path)
        assert set(header) == {"kind", "traj_id", "reason", "n", "x_end"}
        assert header["n"] == 2
        for sample in (first, second):
            assert set(sample) == {"kind", "traj_id", "k", "x", "y", "u_expert", "u_applied"}
        # each visited state is written once: the steps' x rows, then x_end
        states = make_trajectory(2, Outcome.SUCCESS).states.tolist()
        assert [first["x"], second["x"], header["x_end"]] == states

    def test_empty_trajectory_round_trip(self, tmp_path):
        # a rollout that hit a singularity at its first step records no rows
        trajs = [make_trajectory(0, Outcome.FAILURE, start=3.0),
                 make_trajectory(2, Outcome.SUCCESS)]
        path = tmp_path / "data.jsonl"
        write_trajectories(trajs, path)
        loaded = load_dataset(path)
        assert [len(t) for t in loaded] == [0, 2]
        assert loaded[0].states.tolist() == trajs[0].states.tolist() == [
            list(make_state(s=3.0))]
        assert loaded[0].termination_reason is trajs[0].termination_reason
        assert same_trajectories(loaded[1:], trajs[1:])

    def test_writer_numbers_trajectories_from_zero(self, tmp_path):
        trajs = [make_trajectory(2, Outcome.SUCCESS), make_trajectory(1, Outcome.FAILURE)]
        path = tmp_path / "written.jsonl"
        with DatasetWriter(path) as writer:
            assert [writer.write(t) for t in trajs] == [0, 1]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["traj_id"] for r in records] == [0, 0, 0, 1, 1]

    def test_truncated_line_reports_line_number(self, tmp_path):
        trajs = [make_trajectory(2, Outcome.SUCCESS)]
        path = tmp_path / "data.jsonl"
        write_trajectories(trajs, path)
        text = path.read_text()
        path.write_text(text[:-20])  # mangle the last record
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert err.value.line_no == 3

    def test_missing_field_reports_line_and_field(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"kind":"sample","traj_id":0,"k":0,"x":[0,0,0,0,0,0]}\n')
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert "line 1" in str(err.value)
        assert "'y'" in str(err.value)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_mixed_kinds_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(1, Outcome.SUCCESS)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"pool","set":"plus","x":[0,0,0,0,0,0]}\n')
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def _saved_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(2, Outcome.SUCCESS)], path)
        return path, [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _write(path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_sample_without_header_reports_line(self, tmp_path):
        path, (header, first, second) = self._saved_lines(tmp_path)
        self._write(path, [first])
        with pytest.raises(DatasetFormatError, match="header") as err:
            load_dataset(path)
        assert err.value.line_no == 1
        second["traj_id"] = 7
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match="header") as err:
            load_dataset(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("name", ["k", "traj_id"])
    @pytest.mark.parametrize("value", ["1", 1.0, None, [1]])
    def test_non_integer_index_reports_line(self, tmp_path, name, value):
        path, (header, first, second) = self._saved_lines(tmp_path)
        second[name] = value
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match=f"{name} must be an integer") as err:
            load_dataset(path)
        assert err.value.line_no == 3

    def test_duplicate_k_reports_line(self, tmp_path):
        path, (header, first, second) = self._saved_lines(tmp_path)
        second["k"] = 0
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match="duplicate k=0") as err:
            load_dataset(path)
        assert err.value.line_no == 3

    def test_second_header_reports_line(self, tmp_path):
        path, (header, first, second) = self._saved_lines(tmp_path)
        relabeled = dict(header, reason="timeout")
        self._write(path, [header, first, second, relabeled])
        with pytest.raises(DatasetFormatError, match="second 'traj' header") as err:
            load_dataset(path)
        assert err.value.line_no == 4

    @pytest.mark.parametrize("kept", [[1, 2], [0, 2], [2], [0]],
                             ids=["first", "middle", "two", "tail"])
    def test_missing_step_reports_header_line(self, tmp_path, kept):
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(2, Outcome.SUCCESS),
                            make_trajectory(3, Outcome.FAILURE, start=4.0)], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[3] == dict(records[3], kind="traj", traj_id=1)
        self._write(path, records[:4] + [records[4 + k] for k in kept])
        missing = min(set(range(3)) - set(kept))
        with pytest.raises(DatasetFormatError,
                           match=f"trajectory 1: no line for step {missing}$") as err:
            load_dataset(path)
        assert err.value.line_no == 4

    def test_header_without_x_end_reports_line(self, tmp_path):
        # files written before the header carried x_end held each state twice
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(1, Outcome.SUCCESS),
                            make_trajectory(2, Outcome.FAILURE, start=4.0)], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        old = {**records[2], "outcome": "failure"}
        del old["x_end"]
        self._write(path, records[:2] + [old] + records[3:])
        with pytest.raises(DatasetFormatError, match="missing field 'x_end'") as err:
            load_dataset(path)
        assert err.value.line_no == 3

    def test_header_without_n_reports_line(self, tmp_path):
        # files written before the header carried n could lose their last steps unseen
        path, (header, first, second) = self._saved_lines(tmp_path)
        del header["n"]
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match="missing field 'n'") as err:
            load_dataset(path)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("n, message", [(-1, "n must be non-negative, got -1"),
                                            ("2", "n must be an integer"),
                                            (2.0, "n must be an integer")])
    def test_header_whose_n_is_not_a_count_reports_line(self, tmp_path, n, message):
        path, (header, first, second) = self._saved_lines(tmp_path)
        header["n"] = n
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match=message) as err:
            load_dataset(path)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("n, k", [(1, 1), (0, 0)])
    def test_sample_past_n_reports_header_line(self, tmp_path, n, k):
        path, (header, first, second) = self._saved_lines(tmp_path)
        header["n"] = n
        self._write(path, [header, first, second][:n + 2])
        with pytest.raises(DatasetFormatError,
                           match=f"trajectory 0: line for step {k}, but the header gives "
                                 f"n = {n}$") as err:
            load_dataset(path)
        assert err.value.line_no == 1

    def test_header_whose_x_end_is_not_a_state_reports_line(self, tmp_path):
        path, (header, first, second) = self._saved_lines(tmp_path)
        header["x_end"] = header["x_end"][:5]
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match="expected 6 state components") as err:
            load_dataset(path)
        assert err.value.line_no == 1

    def test_partly_unobserved_trajectory_rejected(self, tmp_path):
        # every sample line holds an observation row; a null one names its line
        path, (header, first, second) = self._saved_lines(tmp_path)
        second["y"] = None
        self._write(path, [header, first, second])
        with pytest.raises(DatasetFormatError, match="not iterable") as err:
            load_dataset(path)
        assert err.value.line_no == 3

    def test_unknown_sample_members_are_ignored(self, tmp_path):
        # no writer ever produced such a file: a member the loader does not
        # know, here "safe", is skipped on every sample line
        trajs = [make_trajectory(3, Outcome.SUCCESS),
                 make_trajectory(2, Outcome.FAILURE, start=9.0)]
        path = tmp_path / "data.jsonl"
        write_trajectories(trajs, path)
        lines = path.read_text().splitlines()
        extended = [line[:-1] + ', "safe": null}' if '"kind": "sample"' in line else line
                    for line in lines]
        assert sum(line.endswith('"safe": null}') for line in extended) == 5
        path.write_text("".join(line + "\n" for line in extended))
        assert same_trajectories(load_dataset(path), trajs)

    @given(st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(min_value=-1e-3, max_value=1e9, allow_nan=False),
        ),
        min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_floats_bit_exactly(self, tmp_path_factory, pairs):
        pool = plus_only(states_array([make_state(v=abs(v) % 10, s=s) for v, s in pairs]))
        path = tmp_path_factory.mktemp("rt") / "pool.jsonl"
        save_dataset(pool, path)
        loaded = load_dataset(path)
        assert loaded.d_plus.tobytes() == pool.d_plus.tobytes()

    def test_round_trip_awkward_floats(self, tmp_path):
        awkward = states_array([make_state(v=math.pi, s=1e-300),
                                make_state(v=0.1 + 0.2, s=1.0 / 3.0)])
        path = tmp_path / "pool.jsonl"
        save_dataset(plus_only(awkward), path)
        assert load_dataset(path).d_plus.tobytes() == awkward.tobytes()


class TestPoolInvariants:
    def test_minus_must_be_subset_of_query(self):
        # negatives are flags over the query rows: one flag too many names a
        # state outside the query pool
        query = states_array([make_state(v=1.0)])
        with pytest.raises(ValueError, match="minus"):
            LabeledPool(d_plus=np.zeros((0, 6)), d_query=query, minus=np.array([True, True]))

    def test_pools_hold_raw_states(self):
        rows = states_array([make_state(v=1.0)])
        with pytest.raises(ValueError, match="d_plus"):
            LabeledPool(d_plus=rows[:, :5], d_query=rows, minus=np.array([False]))
        with pytest.raises(ValueError, match="d_query"):
            LabeledPool(d_plus=rows, d_query=rows[0], minus=np.array([False]))
