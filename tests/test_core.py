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
        write_trajectories([make_trajectory(1, Outcome.SUCCESS),
                            make_trajectory(2, Outcome.SUCCESS)], path)
        first, second = (json.loads(line) for line in path.read_text().splitlines())
        for field, u, message in [
                ("u_expert", [1.2, 0.0], "u_a out of [-1, 1]: 1.2"),
                ("u_applied", [0.0, -1.0001], "u_steer out of [-1, 1]: -1.0001"),
                ("u_expert", [math.inf, 0.0], "u_a must be finite, got inf"),
                ("u_applied", [0.0, math.nan], "u_steer must be finite, got nan"),
                ("u_applied", [0.0], "expected 2 action components, got 1")]:
            lines = (first, dict(second, **{field: [second[field][0], u]}))
            path.write_text("".join(json.dumps(r) + "\n" for r in lines))
            with pytest.raises(DatasetFormatError, match=re.escape(message)) as err:
                load_dataset(path)
            assert err.value.line_no == 2

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
        save_dataset(np.array([False, True]), tmp_path / "pool.jsonl.gz")
        write_trajectories([traj], tmp_path / "written.jsonl.gz")
        for name in ("pool", "written"):
            assert (tmp_path / f"{name}.jsonl.gz").read_bytes()[4:8] == bytes(4), name

    def test_pool_round_trip(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        for flags in ([True, False, True], [False], []):
            save_dataset(np.array(flags, dtype=bool), path)
            loaded = load_dataset(path)
            assert loaded.dtype == bool and loaded.tolist() == flags

    @pytest.mark.parametrize("value", ["no", 7, -1, True, 1.0, None, 2, 0.5])
    def test_pool_minus_other_than_0_or_1_reports_line(self, tmp_path, value):
        path = tmp_path / "pool.jsonl"
        save_dataset(np.array([True, False]), path)
        (record,) = self._records(path)
        record["minus_per_step"][1] = value
        self._write(path, [record])
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"line 1: minus_per_step must be 0 or 1, got {value!r}")):
            load_dataset(path)

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
        path, (first, second) = self._saved_records(tmp_path)
        second["y"][1] = y
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match=message) as err:
            load_dataset(path)
        assert err.value.line_no == 2

    def test_writer_refuses_unobserved_trajectory(self, tmp_path):
        # evaluation rollouts of state-feedback policies skip the output map (y=None)
        blind = replace(make_trajectory(3, Outcome.FAILURE), y=None)
        path = tmp_path / "data.jsonl"
        with DatasetWriter(path) as writer:
            with pytest.raises(ValueError, match="y is None"):
                writer.write(blind)
            writer.write(make_trajectory(1, Outcome.SUCCESS))
        assert [t.y.shape for t in load_dataset(path)] == [(1, 5)]

    def test_file_keys_are_the_documented_ones(self, tmp_path):
        path, records = self._saved_records(tmp_path)
        trajs = [make_trajectory(1, Outcome.SUCCESS),
                 make_trajectory(2, Outcome.FAILURE, start=4.0)]
        for record, traj in zip(records, trajs):
            assert set(record) == {"kind", "reason", "states", "y", "u_expert", "u_applied"}
            assert (record["kind"], record["reason"]) == ("traj", traj.termination_reason.value)
            # each visited state is written once, the start state first
            for name in ("states", "y", "u_expert", "u_applied"):
                assert record[name] == getattr(traj, name).tolist()
        # a pool file holds the labeler's flags alone: no state is written twice
        save_dataset(np.array([True, False, False]), path)
        assert self._records(path) == [{"kind": "pool", "minus_per_step": [1, 0, 0]}]

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

    def test_truncated_line_reports_line_number(self, tmp_path):
        path, _ = self._saved_records(tmp_path)
        text = path.read_text()
        path.write_text(text[:-20])  # mangle the last record
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert err.value.line_no == 2

    def test_missing_field_reports_line_and_field(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"reason": "timeout", "states": [[0, 0, 0, 0, 0, 0]]}\n')
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert "line 1" in str(err.value)
        assert "'kind'" in str(err.value)

    @pytest.mark.parametrize("member", ["reason", "states", "y", "u_expert", "u_applied"])
    def test_record_without_a_member_names_it_and_its_line(self, tmp_path, member):
        path, (first, second) = self._saved_records(tmp_path)
        del second[member]
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match=f"^line 2: missing field '{member}'$"):
            load_dataset(path)

    def test_ragged_observations_report_line(self, tmp_path):
        path, (first, second) = self._saved_records(tmp_path)
        second["y"][1] = second["y"][1][:4]   # a row with one preview fewer
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match="^line 2: .*inhomogeneous"):
            load_dataset(path)

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_state_count_other_than_steps_plus_one_reports_line(self, tmp_path, rows):
        path, (first, second) = self._saved_records(tmp_path)   # second: 2 steps
        self._write(path, [first, dict(second, states=(second["states"] * 2)[:rows])])
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"line 2: states has shape ({rows}, 6), expected (3, 6)")):
            load_dataset(path)

    def test_earlier_format_is_refused_at_line_1(self, tmp_path):
        """Files that held a header line per rollout and a line per step, a line
        per pooled state, or a pool record of states with a flag per failed
        state name the first member they lack."""
        path = tmp_path / "data.jsonl"
        state = list(make_state())
        self._write(path, [
            {"kind": "traj", "traj_id": 0, "reason": "timeout", "n": 1, "x_end": state},
            {"kind": "sample", "traj_id": 0, "k": 0, "x": state, "y": state[:3],
             "u_expert": [0.0, 0.0], "u_applied": [0.0, 0.0]}])
        with pytest.raises(DatasetFormatError, match="^line 1: missing field 'states'$"):
            load_dataset(path)
        for record in ({"kind": "pool", "set": "plus", "x": state},
                       {"kind": "pool", "plus": [state], "query": [state, state],
                        "minus": [1, 0]}):
            self._write(path, [record])
            with pytest.raises(DatasetFormatError,
                               match="^line 1: missing field 'minus_per_step'$"):
                load_dataset(path)

    def test_pool_file_with_a_second_record_is_refused(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        save_dataset(np.array([True]), path)
        record = path.read_text()
        path.write_text(record * 2)
        with pytest.raises(DatasetFormatError, match="^line 2: a pool record must be"):
            load_dataset(path)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_mixed_kinds_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(1, Outcome.SUCCESS)], path)
        pool = tmp_path / "pool.jsonl"
        save_dataset(np.array([False]), pool)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(pool.read_text())
        with pytest.raises(DatasetFormatError, match="^line 2: a pool record must be"):
            load_dataset(path)

    def _saved_records(self, tmp_path):
        """A file of two rollouts, one of 1 step and one of 2, and its records."""
        path = tmp_path / "data.jsonl"
        write_trajectories([make_trajectory(1, Outcome.SUCCESS),
                            make_trajectory(2, Outcome.FAILURE, start=4.0)], path)
        return path, self._records(path)

    @staticmethod
    def _records(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _write(path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_header_whose_x_end_is_not_a_state_reports_line(self, tmp_path):
        # the state the last step reached is the last row of states
        path, (first, second) = self._saved_records(tmp_path)
        second["states"][-1] = second["states"][-1][:5]
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match="expected 6 state components") as err:
            load_dataset(path)
        assert err.value.line_no == 2

    def test_partly_unobserved_trajectory_rejected(self, tmp_path):
        # every step holds an observation row; a null one names its line
        path, (first, second) = self._saved_records(tmp_path)
        second["y"][1] = None
        self._write(path, [first, second])
        with pytest.raises(DatasetFormatError, match="not iterable") as err:
            load_dataset(path)
        assert err.value.line_no == 2

    def test_unknown_sample_members_are_ignored(self, tmp_path):
        # no writer ever produced such a file: a member the loader does not
        # know, here "safe", is skipped on every record
        trajs = [make_trajectory(3, Outcome.SUCCESS),
                 make_trajectory(2, Outcome.FAILURE, start=9.0)]
        path = tmp_path / "data.jsonl"
        write_trajectories(trajs, path)
        self._write(path, [dict(r, safe=None) for r in self._records(path)])
        assert same_trajectories(load_dataset(path), trajs)

    @given(st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(min_value=-1e-3, max_value=1e9, allow_nan=False),
        ),
        min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_floats_bit_exactly(self, tmp_path_factory, pairs):
        states = states_array([make_state(v=abs(v) % 10, s=s) for v, s in pairs])
        path = tmp_path_factory.mktemp("rt") / "data.jsonl"
        write_trajectories([self._through(states)], path)
        (loaded,) = load_dataset(path)
        assert loaded.states.tobytes() == states.tobytes()

    def test_round_trip_awkward_floats(self, tmp_path):
        awkward = states_array([make_state(v=math.pi, s=1e-300),
                                make_state(v=0.1 + 0.2, s=1.0 / 3.0)])
        path = tmp_path / "data.jsonl"
        write_trajectories([self._through(awkward)], path)
        assert load_dataset(path)[0].states.tobytes() == awkward.tobytes()

    @staticmethod
    def _through(states: np.ndarray) -> Trajectory:
        """A rollout that visits ``states`` in turn, each step observed as its velocities."""
        n = len(states) - 1
        return Trajectory(states, states[:-1, :3], np.zeros((n, 2)), np.zeros((n, 2)),
                          TerminationReason.TIMEOUT)
