import json

import numpy as np
import pytest

from embadapt import (
    EmbeddingTable,
    RelevanceSet,
    TrainConfig,
    evaluate,
    init_adapter,
    save_checkpoint,
    split_train_val,
    train,
    write_embeddings,
)
from embadapt.cli import _COMMANDS, _build_parser
from embadapt.data import TextItem, adapted_tag, as_side, check_compatible
from embadapt.errors import DataError, FormatError, TagMismatchError
from embadapt.evaluation import ranked_lists
from embadapt.io import load_jsonl_items, load_qrels_tsv


class TestItemSet:
    """An item set is the list load_jsonl_items returns: unique ids, file order."""

    def write_items(self, tmp_path, ids):
        path = tmp_path / "items.jsonl"
        path.write_text("".join(json.dumps({"_id": i, "text": f"text {i}"}) + "\n" for i in ids))
        return path

    def test_preserves_order_and_lookup(self, tmp_path):
        items = load_jsonl_items(self.write_items(tmp_path, ["q3", "q1", "q2"]))
        assert [item.id for item in items] == ["q3", "q1", "q2"]
        assert {item.id: item for item in items}["q2"].text == "text q2"

    def test_duplicate_id_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="q1"):
            load_jsonl_items(self.write_items(tmp_path, ["q1", "q2", "q1"]))


class TestTextItem:
    def test_empty_id_rejected(self):
        with pytest.raises(DataError):
            TextItem(id="")


class TestRelevanceSet:
    def test_grades_and_implicit_negatives(self):
        rels = RelevanceSet([("q1", "c1", 2.0), ("q1", "c2", 1.0), ("q1", "c3", 0.0)])
        assert rels.positives_for("q1") == {"c1": 2.0, "c2": 1.0}
        assert rels.positives_for("q9") == {}

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DataError):
            RelevanceSet([("q1", "c1", 1.0), ("q1", "c1", 2.0)])

    def test_interleaved_rows_are_kept_per_query(self):
        rels = RelevanceSet([("q1", "c1", 1.0), ("q2", "c1", 2.0), ("q1", "c2", 3.0),
                             ("q1", "c3", 0.0), ("q3", "c1", 0.0)])
        # a grade-0 row is the implicit grade 0 of a pair without a row: it is
        # dropped, and a query with no other row is not a judged query
        assert len(rels) == 3
        assert rels.query_ids == ["q1", "q2"]
        assert rels.positives_for("q1") == {"c1": 1.0, "c2": 3.0}
        assert rels.positives_for("q2") == {"c1": 2.0}
        assert rels.positives_for("q3") == {}
        # a query's rows are listed together
        assert rels.triplets == [("q1", "c1", 1.0), ("q1", "c2", 3.0), ("q2", "c1", 2.0)]
        only_q1 = rels.restricted_to(["q1", "q9"])
        assert only_q1.triplets == [("q1", "c1", 1.0), ("q1", "c2", 3.0)]
        assert len(only_q1) == 2 and only_q1.positives_for("q2") == {}
        with pytest.raises(DataError, match=r"duplicate triplet for \('q1', 'c2'\)"):
            RelevanceSet(rels.triplets + [("q1", "c2", 1.0)])
        # a dropped grade-0 row repeats no pair
        assert RelevanceSet(rels.triplets + [("q1", "c2", 0.0)]).triplets == rels.triplets

    def test_negative_grade_rejected(self):
        with pytest.raises(DataError):
            RelevanceSet([("q1", "c1", -0.5)])

    @pytest.mark.parametrize("grade", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("entry", ["RelevanceSet", "evaluate", "train"])
    def test_non_finite_grade_rejected(self, grade, entry):
        """A non-finite grade would make evaluate's mean NaN (invalid JSON) or
        skip its query; the library refuses it as load_qrels_tsv does."""
        q = EmbeddingTable(["q1", "q2"], np.eye(2, dtype=np.float32), "t")
        c = EmbeddingTable(["c1", "c2"], np.eye(2, dtype=np.float32), "t")
        with pytest.raises(DataError, match=r"non-finite grade for \('q2', 'c2'\)"):
            rels = RelevanceSet([("q1", "c1", 1.0), ("q2", "c2", grade)])
            if entry == "evaluate":
                evaluate(q, c, rels)
            elif entry == "train":
                train(q, c, rels, rels, TrainConfig(max_iterations=1))


class TestEmbeddingTable:
    def test_lookup_is_bit_exact(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((5, 8)).astype(np.float32)
        table = EmbeddingTable([f"x{i}" for i in range(5)], vecs, "enc")
        order = [3, 0, 4, 1, 2]
        assert np.array_equal(table.rows_for([f"x{i}" for i in order]), vecs[order])

    def test_lookup_builds_the_index_only_when_asked(self):
        ids = ["b", "cé", "a", ""]
        vecs = np.arange(8, dtype=np.float32).reshape(4, 2)
        table = EmbeddingTable(ids, vecs, "enc")
        [ranked] = ranked_lists(EmbeddingTable(["q"], vecs[:1], "enc"), table, k=2)
        assert len(ranked.entries) == 2
        assert "_index" not in table.__dict__  # ranking never looks an id up
        assert table.row_indices(["a", "", "b", "cé", "a"]).tolist() == [2, 3, 0, 1, 2]
        assert "a" in table and "" in table and "d" not in table
        with pytest.raises(KeyError):
            table.row_indices(["a", "d"])
        assert table.ids == ids

    def test_duplicate_id_names_first_repeat(self):
        with pytest.raises(DataError, match="^duplicate embedding id: 'b'$"):
            EmbeddingTable(["a", "b", "c", "b", "a"], np.ones((5, 2), np.float32))

    def test_vectors_are_read_only(self):
        table = EmbeddingTable(["a"], np.ones((1, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 2.0

    def test_callers_writable_array_is_copied(self):
        vecs = np.ones((2, 3), dtype=np.float32)
        table = EmbeddingTable(["a", "b"], vecs)
        vecs[0, 0] = 5.0
        assert table.vectors[0, 0] == 1.0
        assert vecs.flags.writeable

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a"], np.array([[1.0, np.nan]], dtype=np.float32))

    def test_with_rows_shares_the_checked_ids(self):
        table = EmbeddingTable(["a", "b"], np.ones((2, 3), np.float32), "enc")
        rows = np.zeros((2, 3), np.float32)
        other = table._with_rows(rows, "enc@x")
        assert other._ids is table._ids and other.ids == ["a", "b"]
        assert other.vectors is rows and not rows.flags.writeable
        assert other.encoder_tag == "enc@x" and other.row_indices(["b"]).tolist() == [1]
        for bad in (np.zeros((3, 3), np.float32), np.zeros((2, 4), np.float32),
                    np.zeros((2, 3))):
            with pytest.raises(DataError, match="do not match the table's float32 \\(2, 3\\)"):
                table._with_rows(bad, "enc")

    def test_ragged_dim_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a", "b"], np.ones((1, 4), dtype=np.float32))


class TestSplitTrainVal:
    @staticmethod
    def rels_for(n_queries):
        return RelevanceSet([(f"q{i}", f"c{i}", 1.0) for i in range(n_queries)])

    def test_80_20_split_of_10(self):
        train, val = split_train_val(self.rels_for(10), 0.8, seed=7)
        assert len(set(train.query_ids)) == 8
        assert len(set(val.query_ids)) == 2
        assert not set(train.query_ids) & set(val.query_ids)

    def test_deterministic(self):
        a = split_train_val(self.rels_for(10), 0.8, seed=7)
        b = split_train_val(self.rels_for(10), 0.8, seed=7)
        assert sorted(a[0].query_ids) == sorted(b[0].query_ids)
        assert sorted(a[1].query_ids) == sorted(b[1].query_ids)

    def test_partition_property(self):
        # brute-force set check: union is everything, intersection empty
        rels = self.rels_for(100)
        for seed in range(5):
            for ratio in (0.2, 0.5, 0.8):
                train, val = split_train_val(rels, ratio, seed)
                t, v = set(train.query_ids), set(val.query_ids)
                assert t | v == set(rels.query_ids)
                assert not t & v

    def test_triplets_follow_their_query(self):
        rels = RelevanceSet(
            [("q1", "c1", 1.0), ("q1", "c2", 2.0), ("q2", "c1", 1.0), ("q3", "c3", 1.0)]
        )
        train, val = split_train_val(rels, 0.67, seed=0)
        for side in (train, val):
            mine = set(side.query_ids)
            assert side.triplets == [t for t in rels.triplets if t[0] in mine]

    def test_zero_grade_rows_split_as_the_loader_splits(self, tmp_path):
        # the query qz has only a grade-0 row: it is no judged query for the
        # library, as for load_qrels_tsv, so both draw the same split
        rows = [(f"q{i}", f"c{i}", 1.0) for i in range(10)] + [("qz", "c0", 0.0)]
        path = tmp_path / "qrels.tsv"
        path.write_text("".join(f"{q}\t{c}\t{y}\n" for q, c, y in rows), encoding="utf-8")
        library = split_train_val(RelevanceSet(rows), 0.7, seed=0)
        loader = split_train_val(load_qrels_tsv(path), 0.7, seed=0)
        assert [side.triplets for side in library] == [side.triplets for side in loader]
        assert sorted(library[1].query_ids) == ["q0", "q1", "q8"]

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DataError):
            split_train_val(self.rels_for(1), 0.8, seed=0)
        with pytest.raises(DataError):
            split_train_val(self.rels_for(10), 0.01, seed=0)
        with pytest.raises(DataError):
            split_train_val(self.rels_for(10), 1.5, seed=0)


def run_command(argv):
    """A CLI command with its error raised, not turned into exit status 1."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def cli_search(tmp_path, monkeypatch, q, c, model, force):
    cp, mp, endpoint = tmp_path / "c.sadp", tmp_path / "m.sadc", tmp_path / "endpoint.json"
    write_embeddings(c, cp)
    save_checkpoint(model, str(mp))
    endpoint.write_text(json.dumps({"base_url": "https://encoder.example/embed"}))
    monkeypatch.setattr("embadapt.cli.fetch_embeddings", lambda items, cfg: q.subset(["q1"]))
    return run_command(["search", "--corpus", str(cp), "--model", str(mp), "--text", "q",
                        "--endpoint-config", str(endpoint), *["--force"] * force])


def cli_transform(tmp_path, monkeypatch, q, c, model, force):
    qp, mp = tmp_path / "q.sadp", tmp_path / "m.sadc"
    write_embeddings(q, qp)
    save_checkpoint(model, str(mp))
    return run_command(["transform", "--in", str(qp), "--model", str(mp),
                        "--out", str(tmp_path / "out.sadp"), *["--force"] * force])


RELS = RelevanceSet([("q1", "c1", 1.0), ("q2", "c2", 1.0)])


def lib_train(tmp_path, monkeypatch, q, c, model, force):
    tr, va = split_train_val(RELS, 0.5, seed=0)
    return train(q, c, tr, va, TrainConfig(batch_size=1, max_iterations=1, eval_every=1))


def lib_evaluate(tmp_path, monkeypatch, q, c, model, force):
    return evaluate(q, c, RELS, model, force=force)


def lib_ranked_lists(tmp_path, monkeypatch, q, c, model, force):
    return ranked_lists(q, c, model, force=force)


TABLE_CASES, MODEL_CASES = ("table-dim", "table-tag"), ("model-dim", "model-tag")
# entry point -> (call, its first side's name, the mismatches it can meet, takes force)
ENTRY_POINTS = {
    "train": (lib_train, "query", TABLE_CASES, False),
    "evaluate": (lib_evaluate, "query", TABLE_CASES + MODEL_CASES, True),
    "ranked_lists": (lib_ranked_lists, "query", TABLE_CASES + MODEL_CASES, True),
    "cli-search": (cli_search, "query", TABLE_CASES + MODEL_CASES, True),
    "cli-transform": (cli_transform, "input", MODEL_CASES, True),
}
MISMATCH_CASES = [
    pytest.param(entry, case, force, id=f"{entry}-{case}-{'forced' if force else 'unforced'}")
    for entry, (_, _, cases, takes_force) in ENTRY_POINTS.items()
    for case in cases
    for force in (False, True)[: 1 + takes_force]
]


class TestCompatibilityRule:
    """Every entry point refuses tables and a model of different dims with
    DataError, and of different encoder tags with TagMismatchError unless forced."""

    @staticmethod
    def sides(case):
        """Query, corpus and model of dim 2 and tag 'enc-a', except that the
        side the case names has dim 3 or tag 'enc-b'."""
        c_dim = 3 if case == "table-dim" else 2
        q = EmbeddingTable(["q1", "q2"], np.eye(2, dtype=np.float32), "enc-a")
        c = EmbeddingTable(["c1", "c2", "c3"], np.eye(3, c_dim, dtype=np.float32),
                           "enc-b" if case == "table-tag" else "enc-a")
        model = init_adapter(3 if case == "model-dim" else 2, seed=0,
                             encoder_tag="enc-b" if case == "model-tag" else "enc-a")
        return q, c, model

    @pytest.mark.parametrize("entry, case, force", MISMATCH_CASES)
    def test_mismatch(self, tmp_path, monkeypatch, entry, case, force):
        call, first, _, _ = ENTRY_POINTS[entry]
        q, c, model = self.sides(case)
        if force and case.endswith("tag"):
            call(tmp_path, monkeypatch, q, c, model, force)
            return
        kind = case.split("-")[1]
        error, ours, theirs = ((DataError, 2, 3) if kind == "dim"
                               else (TagMismatchError, "enc-a", "enc-b"))
        other = "corpus" if case.startswith("table") else "model"
        label = "dim" if kind == "dim" else "encoder tag"
        with pytest.raises(error, match=f"^{label} does not match: ") as info:
            call(tmp_path, monkeypatch, q, c, model, force)
        message = str(info.value)
        assert f"{first} {ours!r}" in message and f"{other} {theirs!r}" in message
        assert "force" not in message


class TestProvenanceRule:
    """check_compatible reads transform's mark on a tag: the side the rows
    were adapted as and the CRC32 of the checkpoint."""

    @staticmethod
    def tables(q_tag, c_tag):
        return {"query": EmbeddingTable(["q1"], np.eye(1, 2, dtype=np.float32), q_tag),
                "corpus": EmbeddingTable(["c1"], np.eye(1, 2, dtype=np.float32), c_tag)}

    def test_tag_format(self):
        assert adapted_tag("enc", "corpus", 0x1A2B) == "enc@adapted:corpus:00001a2b"
        assert as_side("enc@adapted:corpus:00001a2b", "query") == "enc@adapted:query:00001a2b"
        assert as_side("enc", "query") == "enc"

    @pytest.mark.parametrize("q_tag, c_tag, with_model", [
        ("enc", "enc", True),
        (adapted_tag("enc", "query", 7), adapted_tag("enc", "corpus", 7), False),
    ], ids=["raw-with-model", "adapted-by-one-checkpoint"])
    def test_accepted(self, q_tag, c_tag, with_model):
        model = init_adapter(2, encoder_tag="enc") if with_model else None
        check_compatible(self.tables(q_tag, c_tag), model)

    @pytest.mark.parametrize("q_tag, c_tag, with_model, message", [
        (adapted_tag("enc", "query", 7), adapted_tag("enc", "corpus", 7), True,
         "query table was already adapted by checkpoint 00000007"),
        ("enc", adapted_tag("enc", "corpus", 7), False, "not adapted by one checkpoint"),
        (adapted_tag("enc", "query", 7), adapted_tag("enc", "corpus", 8), False,
         "not adapted by one checkpoint"),
        (adapted_tag("enc", "query", 7), adapted_tag("enc", "query", 7), False,
         "corpus table was adapted as query"),
        (adapted_tag("enc-a", "query", 7), adapted_tag("enc-b", "corpus", 7), False,
         "encoder tag does not match"),
    ], ids=["model-on-adapted", "one-side-adapted", "two-checkpoints", "wrong-side",
            "different-encoders"])
    def test_refused_unless_forced(self, q_tag, c_tag, with_model, message):
        model = init_adapter(2, encoder_tag="enc") if with_model else None
        tables = self.tables(q_tag, c_tag)
        with pytest.raises(TagMismatchError, match=message):
            check_compatible(tables, model)
        check_compatible(tables, model, force=True)

    def test_train_refuses_adapted_tables(self):
        tables = self.tables(adapted_tag("enc", "query", 7), adapted_tag("enc", "corpus", 7))
        rels = RelevanceSet([("q1", "c1", 1.0)])
        with pytest.raises(TagMismatchError, match="would adapt it twice"):
            train(tables["query"], tables["corpus"], rels, rels, TrainConfig())
