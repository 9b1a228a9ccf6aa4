import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from embadapt.cli import _build_parser
from embadapt import data
from embadapt.data import (
    FP_CHUNK, IdBlock, TextItem, adapted_tag, as_side, check_compatible, check_unique,
)
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

    def test_no_rows_rejected(self):
        with pytest.raises(DataError, match="at least one row"):
            EmbeddingTable([], np.zeros((0, 4)))

    def test_ragged_dim_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a", "b"], np.ones((1, 4), dtype=np.float32))


def id_block(ids):
    encoded = [i.encode("utf-8") for i in ids]
    return IdBlock(b"".join(encoded), np.array([len(e) for e in encoded], dtype="<u2"))


def verdict(check, *args):
    try:
        check(*args)
    except DataError as exc:
        return str(exc)
    return None


# empty ids, non-ASCII ids, ids that differ only by trailing NULs, and ids of
# the format's largest length, 65535 bytes, in one character width or two
ID_TEXTS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "\u00e9", "\u00e9\x00",
                     "\U0001f600", "x" * 65535, "x" * 65534 + "\x00", "\u00e9" * 32767 + "x"]))


class TestIdBlock:
    """IdBlock keeps a file's id bytes and checks their uniqueness on the
    bytes, with the verdict and the message of check_unique."""

    @settings(deadline=None, max_examples=200, database=None)
    @given(ids=st.lists(ID_TEXTS, min_size=1, max_size=30),
           repeat=st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
           collide=st.booleans())
    def test_check_equals_check_unique(self, ids, repeat, collide):
        if repeat is not None:  # a copy of an earlier id, at any position
            at = repeat[1] % (len(ids) + 1)
            ids.insert(at, ids[repeat[0] % max(at, 1)] if at else ids[0])
        block = id_block(ids)
        assert list(block) == ids
        assert [block[i] for i in range(-len(ids), len(ids))] == ids + ids
        with pytest.MonkeyPatch.context() as mp:
            if collide:  # every id of one fingerprint: only the bytes tell them apart
                mp.setattr(data, "fingerprints", lambda raw, ends: np.zeros(len(ends), np.uint64))
            assert verdict(id_block(ids).check_unique) == verdict(check_unique, ids)

    @pytest.mark.parametrize("collide", [False, True])
    def test_first_repeat_across_chunks(self, monkeypatch, collide):
        # 20000 ids of 8 bytes span three FP_CHUNKs; the repeat named is the
        # first in file order, wherever its earlier copy lies
        if collide:
            monkeypatch.setattr(data, "fingerprints", lambda raw, ends: np.zeros(len(ends),
                                                                                np.uint64))
        ids = [f"id{i:06d}" for i in range(20000)]
        assert sum(map(len, ids)) > 2 * FP_CHUNK
        assert verdict(id_block(ids).check_unique) is None
        for first, later in ((0, 1), (5, 8191), (8191, 8192), (100, 19999), (19998, 19999)):
            copy = list(ids)
            copy[later] = copy[first]
            copy[-1] = copy[0]  # a later repeat never hides the first
            message = verdict(check_unique, copy)
            assert message == f"duplicate embedding id: {copy[later]!r}"
            assert verdict(id_block(copy).check_unique) == message

    def test_fingerprints_do_not_depend_on_the_chunks(self):
        ids = [("x" * (i % 300)) + str(i) for i in range(2000)]
        block = id_block(ids)
        whole = data.fingerprints(block._raw, block._ends)
        one = [data.fingerprints(i.encode(), np.array([len(i.encode())]))[0] for i in ids]
        assert whole.tolist() == [int(f) for f in one]
        assert len(set(one)) == len(ids)

    def test_an_id_is_decoded_only_when_asked(self, monkeypatch):
        block = id_block(["a", "b\u00e9", "c"])
        assert block[1] == "b\u00e9" and block[-1] == "c" and block[1:] == ["b\u00e9", "c"]
        with pytest.raises(IndexError):
            block[3]
        assert block._all is None
        assert list(block) == ["a", "b\u00e9", "c"] and block._all is not None


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
    return args.run(args)


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
