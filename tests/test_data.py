import csv
import json
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclf import (
    CrossDomainDataset,
    DataError,
    RawRating,
    ScaleSpec,
    build_dataset,
    given_n_split,
    load_dataset,
    normalize_scale,
    parse_ratings,
    save_dataset,
    select_subset,
)
from pclf import ModelDims, SyntheticSpec, synth_generate
from pclf.data import atomic_write, _given_n_positions, _parse_ratings_csv, _read_ratings_csv

from conftest import rows_of
from oracles import given_n_split_reference, save_dataset_reference


class TestNormalizeScale:
    def test_eachmovie_top_maps_down(self):
        assert normalize_scale(6, ScaleSpec(1, 6)) == 5

    def test_bottom_endpoint_fixed(self):
        assert normalize_scale(1, ScaleSpec(1, 6)) == 1

    def test_zero_to_nine_scale(self):
        scale = ScaleSpec(0, 9)
        assert normalize_scale(9, scale) == 5
        assert normalize_scale(4, scale) == 3

    def test_identity_on_target_scale(self):
        scale = ScaleSpec(1, 5)
        for r in range(1, 6):
            assert normalize_scale(r, scale) == r

    def test_out_of_bounds(self):
        with pytest.raises(DataError):
            normalize_scale(7, ScaleSpec(1, 5))
        with pytest.raises(DataError):
            normalize_scale(0.5, ScaleSpec(1, 5))

    @given(
        a=st.floats(0, 9, allow_nan=False),
        b=st.floats(0, 9, allow_nan=False),
        levels=st.integers(2, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b, levels):
        scale = ScaleSpec(0, 9, levels)
        lo, hi = min(a, b), max(a, b)
        assert normalize_scale(lo, scale) <= normalize_scale(hi, scale)

    def test_scale_validation(self):
        with pytest.raises(DataError):
            ScaleSpec(5, 5)
        with pytest.raises(DataError):
            ScaleSpec(1, 5, target_levels=1)


class TestParseRatings:
    def test_tab_separated_row(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("196\t242\t3\n")
        out = parse_ratings(str(path))
        assert out == [RawRating("196", "242", 3.0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert parse_ratings(str(path)) == []

    def test_rating_out_of_scale_names_row(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t1\t3\n2\t2\t7\n")
        with pytest.raises(DataError, match=":2:"):
            parse_ratings(str(path), scale=ScaleSpec(1, 5))

    def test_malformed_row_names_row(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t1\t3\n2\t2\n")
        with pytest.raises(DataError, match=":2:"):
            parse_ratings(str(path))

    def test_non_numeric_rating(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("1\t1\tfive\n")
        with pytest.raises(DataError, match="not a number"):
            parse_ratings(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.tsv"):
            parse_ratings(str(tmp_path / "nope.tsv"))

    def test_header_and_columns(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,user,rating\nI1,U1,4\n")
        out = parse_ratings(
            str(path), delimiter=",", column_map=(1, 0, 2), skip_header=True
        )
        assert out == [RawRating("U1", "I1", 4.0)]

    @pytest.mark.parametrize("columns", [(0, 1, -1), (0, 1, -5), (-2, 1, 2)],
                             ids=["last-field", "past-the-row", "user"])
    def test_negative_column_refused(self, tmp_path, columns):
        path = tmp_path / "r.tsv"
        path.write_text("1\t1\t3\textra\n")
        negative = min(columns)
        with pytest.raises(DataError, match=f"must not be negative, got {negative}$"):
            parse_ratings(str(path), column_map=columns)

    @pytest.mark.parametrize("columns", [(0, 0, 2), (0, 1, 1), (2, 1, 2)],
                             ids=["user-item", "item-rating", "user-rating"])
    def test_repeated_column_refused(self, tmp_path, columns):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t3\n")
        with pytest.raises(DataError, match=r"must be distinct, got \[%s\]$"
                           % ", ".join(map(str, columns))):
            parse_ratings(str(path), column_map=columns)

    @pytest.mark.parametrize("columns", [(), (0, 1), (0, 1, 2, 3)],
                             ids=["none", "two", "four"])
    def test_column_count_refused(self, tmp_path, columns):
        path = tmp_path / "r.tsv"
        path.write_text("1\t2\t3\t4\n")
        with pytest.raises(DataError, match=r"needs 3 entries \(user, item, rating\), "
                           r"got \[%s\]$" % ", ".join(map(str, columns))):
            parse_ratings(str(path), column_map=columns)

    def test_preserves_file_order(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("b\tx\t2\na\ty\t5\n")
        out = parse_ratings(str(path))
        assert [r.user_id for r in out] == ["b", "a"]


def _make_raws(n_users, per_user):
    return [
        RawRating(f"u{u}", f"i{u}_{j}", (u + j) % 5 + 1)
        for u in range(n_users)
        for j in range(per_user)
    ]


class TestSelectSubset:
    def test_all_retained(self):
        raws = _make_raws(10, 20)
        out = select_subset(raws, n_users=10, n_items=200, min_user_ratings=16)
        assert sorted(set(r.user_id for r in out)) == sorted(f"u{u}" for u in range(10))

    def test_infeasible(self):
        raws = _make_raws(3, 20)
        with pytest.raises(DataError, match="only 3"):
            select_subset(raws, n_users=5, n_items=60, min_user_ratings=16)

    def test_deterministic(self):
        raws = _make_raws(20, 10)
        a = select_subset(raws, n_users=5, n_items=50, seed=42)
        b = select_subset(raws, n_users=5, n_items=50, seed=42)
        assert a == b

    def test_threshold_is_strict(self):
        # a user with exactly the threshold count does not qualify
        raws = _make_raws(4, 16)
        with pytest.raises(DataError):
            select_subset(raws, n_users=1, n_items=1, min_user_ratings=16)

    def test_no_count_keeps_every_qualifying_one(self):
        """A count of None takes every qualifying user or item, drawn as an
        explicit count of all of them is, so the other count's draw keeps its
        sample."""
        raws = _make_raws(10, 5) + [RawRating("light", f"x{j}", 3) for j in range(2)]
        assert select_subset(raws, min_user_ratings=2) == raws[:50]
        assert select_subset(raws, min_item_ratings=1) == []
        for seed in range(4):
            assert (select_subset(raws, n_items=7, min_user_ratings=2, seed=seed)
                    == select_subset(raws, n_users=10, n_items=7, min_user_ratings=2, seed=seed))
            assert (select_subset(raws, n_users=4, seed=seed)
                    == select_subset(raws, n_users=4, n_items=52, seed=seed))


class TestBuildDataset:
    def test_counts(self):
        raws = [RawRating("a", "x", 5), RawRating("b", "y", 3), RawRating("a", "y", 1)]
        ds = build_dataset([(raws, ScaleSpec(1, 5))])
        assert ds.n_domains == 1
        assert ds.n_ratings == [3]
        assert ds.n_users == [2] and ds.n_items == [2]

    def test_duplicate_keeps_last(self):
        raws = [RawRating("a", "x", 5), RawRating("a", "x", 2)]
        ds = build_dataset([(raws, ScaleSpec(1, 5))])
        assert ds.n_ratings == [1]
        assert ds.ratings[0][0] == 2

    def test_shared_id_strings_stay_distinct(self):
        d0 = [RawRating("42", "9", 3)]
        d1 = [RawRating("42", "9", 4)]
        ds = build_dataset([(d0, ScaleSpec(1, 5)), (d1, ScaleSpec(1, 5))])
        assert ds.n_users == [1, 1]
        assert ds.total_users == 2
        gu, _, _ = ds.pooled()
        assert list(gu) == [0, 1]

    def test_empty_domain_list(self):
        with pytest.raises(DataError):
            build_dataset([])

    def test_empty_domain(self):
        with pytest.raises(DataError, match="domain 0"):
            build_dataset([([], ScaleSpec(1, 5))])

    def test_level_disagreement(self):
        d0 = [RawRating("a", "x", 3)]
        with pytest.raises(DataError, match="target_levels"):
            build_dataset([(d0, ScaleSpec(1, 5, 5)), (d0, ScaleSpec(1, 5, 4))])

    def test_first_appearance_indexing(self):
        raws = [RawRating("b", "y", 1), RawRating("a", "x", 2), RawRating("b", "x", 3)]
        ds = build_dataset([(raws, ScaleSpec(1, 5))])
        assert ds.user_ids[0] == ["b", "a"]
        assert ds.item_ids[0] == ["y", "x"]


class TestGivenNSplit:
    @staticmethod
    def _dataset(counts, domain_users=None):
        """One domain; user u gets counts[u] ratings on distinct items."""
        rows = [(0, u, j, (u + j) % 5 + 1) for u, c in enumerate(counts) for j in range(c)]
        return CrossDomainDataset.from_indexed(
            n_levels=5, triples=np.array(rows), n_users=[len(counts)], n_items=[max(counts)]
        )

    def test_given_ten(self):
        ds = self._dataset([5, 30])
        split = given_n_split(ds, 0, n_train_users=1, n_given=10, seed=0)
        test_train = [t for t in split.train_pool if t.user == 1]
        assert len(test_train) == 10
        assert len(split.eval_set) == 20
        assert all(t.user == 1 for t in split.eval_set)

    def test_clamped_sample(self):
        ds = self._dataset([5, 4])
        split = given_n_split(ds, 0, n_train_users=1, n_given=5, seed=0)
        assert len([t for t in split.train_pool if t.user == 1]) == 4
        assert split.eval_set == []

    def test_given_zero(self):
        ds = self._dataset([5, 7])
        split = given_n_split(ds, 0, n_train_users=1, n_given=0, seed=0)
        assert len(split.eval_set) == 7
        assert all(t.user == 0 for t in split.train_pool)

    def test_partition_and_disjoint(self):
        rng = np.random.default_rng(3)
        counts = [int(rng.integers(1, 25)) for _ in range(12)]
        ds = self._dataset(counts)
        split = given_n_split(ds, 0, n_train_users=4, n_given=6, seed=9)
        assert len(split.train_pool) + len(split.eval_set) == sum(counts)
        overlap = {(t.user, t.item) for t in split.train_pool} & {
            (t.user, t.item) for t in split.eval_set
        }
        assert overlap == set()

    def test_deterministic(self):
        ds = self._dataset([8, 9, 10])
        a = given_n_split(ds, 0, 1, 3, seed=5)
        b = given_n_split(ds, 0, 1, 3, seed=5)
        assert a.train_pool == b.train_pool and a.eval_set == b.eval_set

    def test_domain_out_of_range(self):
        ds = self._dataset([3, 3])
        with pytest.raises(DataError, match="domain 2"):
            given_n_split(ds, 2, 1, 1, seed=0)

    def test_train_users_bound(self):
        ds = self._dataset([3, 3])
        with pytest.raises(DataError):
            given_n_split(ds, 0, 2, 1, seed=0)

    @given(n_given=st.integers(0, 12), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n_given, seed):
        ds = self._dataset([6, 11, 3, 14])
        split = given_n_split(ds, 0, 2, n_given, seed=seed)
        assert len(split.train_pool) + len(split.eval_set) == 6 + 11 + 3 + 14
        for t in split.eval_set:
            assert t.user >= 2


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, tiny_dataset):
        save_dataset(tiny_dataset, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert back.n_levels == tiny_dataset.n_levels
        assert back.n_users == tiny_dataset.n_users
        assert back.n_items == tiny_dataset.n_items
        assert rows_of(back) == rows_of(tiny_dataset)
        assert back.user_ids == tiny_dataset.user_ids

    def test_build_idempotent_through_csv(self, tmp_path):
        raws = [
            RawRating("alice", "x", 5),
            RawRating("bob", "y", 2),
            RawRating("alice", "y", 4),
            RawRating("alice", "x", 3),  # revision, kept over the first
        ]
        ds = build_dataset([(raws, ScaleSpec(1, 5))])
        save_dataset(ds, str(tmp_path))
        reparsed = parse_ratings(
            str(tmp_path / "ratings.csv"),
            delimiter=",",
            column_map=(1, 2, 3),
            scale=ScaleSpec(1, 5),
            skip_header=True,
        )
        rebuilt = build_dataset([(reparsed, ScaleSpec(1, 5))])
        assert rows_of(rebuilt) == rows_of(ds)
        assert rebuilt.n_users == ds.n_users and rebuilt.n_items == ds.n_items

    def test_load_rejects_bad_format(self, tmp_path, tiny_dataset):
        save_dataset(tiny_dataset, str(tmp_path))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest.read_text().replace("pclf-dataset-v1", "other-v9"))
        with pytest.raises(DataError, match="pclf-dataset-v1"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("key, value", [("n_levels", "5"), ("n_domains", None),
                                            ("user_ids", [[1]]), ("n_items", 3)])
    def test_load_rejects_wrong_json_type(self, tmp_path, tiny_dataset, key, value):
        save_dataset(tiny_dataset, str(tmp_path))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        with pytest.raises(DataError, match=f"'{key}' in dataset manifest .* must be"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("key, edit, message", [
        ("n_items", lambda v: v[:1], "'n_items' in dataset manifest .* needs one entry per "
                                     r"domain \(2\), got 1"),
        ("n_users", lambda v: v + v[:1], "'n_users' in dataset manifest .* needs one entry "
                                         r"per domain \(2\), got 3"),
        ("user_ids", lambda v: v[:1], "'user_ids' .* per domain"),
        ("n_domains", lambda v: 3, "'n_users' .* per domain \\(3\\), got 2"),
        ("item_ids", lambda v: [v[0], v[1][1:]],
         "'item_ids' in dataset manifest .* has [0-9]+ entries for domain 1, "
         "where 'n_items' says [0-9]+"),
        ("user_ids", lambda v: [v[0] + ["extra"], v[1]],
         "'user_ids' .* entries for domain 0, where 'n_users' says"),
        ("n_ratings", lambda v: v[:1], r"'n_ratings' .* per domain \(2\), got 1"),
        ("n_ratings", lambda v: [v[0], v[1] + 1],
         r"ratings\.csv holds 3 ratings for domain 1, where 'n_ratings' in dataset "
         r"manifest .* says 4$"),
    ], ids=["n_items-short", "n_users-long", "user_ids-short", "n_domains",
            "item_ids-entry-short", "user_ids-entry-long", "n_ratings-short",
            "n_ratings-count"])
    def test_load_rejects_list_lengths(self, tmp_path, tiny_dataset, key, edit, message):
        save_dataset(tiny_dataset, str(tmp_path))
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, key: edit(doc[key])}))
        with pytest.raises(DataError, match=message):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("n_domains", [{}, {"n_domains": 0}], ids=["implied", "declared"])
    def test_load_rejects_no_domains(self, tmp_path, tiny_dataset, n_domains):
        save_dataset(tiny_dataset, str(tmp_path))
        manifest = tmp_path / "manifest.json"
        doc = {key: value for key, value in json.loads(manifest.read_text()).items()
               if key not in ("n_domains", "n_ratings")}
        doc.update(n_users=[], n_items=[], user_ids=[], item_ids=[], **n_domains)
        manifest.write_text(json.dumps(doc))
        ratings = tmp_path / "ratings.csv"
        ratings.write_bytes(ratings.read_bytes().splitlines(keepends=True)[0])
        with pytest.raises(DataError, match="dataset manifest .* has no domains; "
                                            "at least one domain is required"):
            load_dataset(str(tmp_path))

    def test_load_without_n_ratings(self, tmp_path, tiny_dataset):
        save_dataset(tiny_dataset, str(tmp_path))
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["n_ratings"]   # optional: the rows give the counts
        manifest.write_text(json.dumps(doc))
        assert rows_of(load_dataset(str(tmp_path))) == rows_of(tiny_dataset)

    @pytest.mark.parametrize("row", ["0,1,x,3", "0,1,2"])
    def test_load_malformed_row_names_line(self, tmp_path, tiny_dataset, row):
        save_dataset(tiny_dataset, str(tmp_path))
        ratings = tmp_path / "ratings.csv"
        lines = ratings.read_text().splitlines()
        lines[3] = row  # the header is line 1, so this is line 4
        ratings.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"ratings\.csv:4\b"):
            load_dataset(str(tmp_path))

    def test_serialized_form_byte_identical(self, tmp_path, tiny_dataset):
        save_dataset(tiny_dataset, str(tmp_path / "a"))
        save_dataset(tiny_dataset, str(tmp_path / "b"))
        for name in ("ratings.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_ratings_bytes_match_csv_writer(self, tmp_path, tiny_dataset):
        import io

        for ds in (tiny_dataset, tiny_dataset.restrict([np.arange(2), np.arange(0)])):
            save_dataset(ds, str(tmp_path))
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(["domain", "user_idx", "item_idx", "rating"])
            writer.writerows(rows_of(ds))
            assert (tmp_path / "ratings.csv").read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("broken", ["ratings.csv", "manifest.json"])
    def test_failed_write_keeps_previous_file(self, tmp_path, tiny_dataset, monkeypatch,
                                              broken):
        save_dataset(tiny_dataset, str(tmp_path))
        before = (tmp_path / broken).read_bytes()

        def broken_rows(write, *columns, newline):
            write("0,trunc")    # after the header
            raise OSError("disk full")

        def broken_dumps(doc, **kwargs):
            raise OSError("disk full")

        if broken == "ratings.csv":
            monkeypatch.setattr("pclf.data._write_rows", broken_rows)
        else:
            monkeypatch.setattr(json, "dumps", broken_dumps)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(tiny_dataset.domain_view(0), str(tmp_path))
        assert (tmp_path / broken).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "ratings.csv"]

    def test_nested_writes_to_one_target(self, tmp_path):
        """Each write has its own temp file, even two at once in one thread
        to one target; the last to finish wins."""
        target = tmp_path / "out.txt"
        with atomic_write(str(target)) as outer:
            outer.write("outer\n")
            with atomic_write(str(target)) as inner:
                inner.write("inner\n")
            assert target.read_text() == "inner\n"
        assert target.read_text() == "outer\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# each side of a change in digit count, and past 2**32
_EDGE_INDICES = [0, 9, 10, 99, 100, 999, 1000, 999_999, 10**6, 2**32 - 1, 2**32, 2**40 + 7]


@st.composite
def _columns_dataset(draw):
    """A dataset built from its columns: 1 to 11 domains, any of them
    without ratings, indices at the digit-count edges and past 2**32, up
    to 12 levels, and short ID maps of any text."""
    n_levels = draw(st.integers(2, 12))
    index = st.one_of(st.sampled_from(_EDGE_INDICES), st.integers(0, 2**40))
    cols = {"users": [], "items": [], "ratings": []}
    for _ in range(draw(st.integers(1, 11))):
        rows = draw(st.lists(st.tuples(index, index, st.integers(1, n_levels)), max_size=12))
        for name, col in zip(cols, np.array(rows, dtype=np.int64).reshape(-1, 3).T):
            cols[name].append(col)
    ids = st.lists(st.lists(st.text(max_size=4), max_size=3),
                   min_size=len(cols["users"]), max_size=len(cols["users"]))
    return CrossDomainDataset(
        n_levels=n_levels, **cols,
        n_users=[int(u.max(initial=0)) + 1 for u in cols["users"]],
        n_items=[int(v.max(initial=0)) + 1 for v in cols["items"]],
        user_ids=draw(ids), item_ids=draw(ids))


def _dataset_files(save, dataset) -> dict:
    """The bytes of each file ``save(dataset, directory)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        save(dataset, tmp)
        return {path.name: path.read_bytes() for path in sorted(pathlib.Path(tmp).iterdir())}


class TestSaveDatasetReference:
    """``save_dataset`` writes the bytes of the csv.writer + np.savetxt +
    json.dump writer it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_columns_dataset(), st.integers(1, 9))
    def test_bytes_match_reference(self, dataset, block_rows):
        with mock.patch("pclf.data.BLOCK_ROWS", block_rows):
            written = _dataset_files(save_dataset, dataset)
        assert written == _dataset_files(save_dataset_reference, dataset)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip(self, data):
        n_levels = data.draw(st.integers(2, 12), label="levels")
        sizes = st.lists(st.integers(1, 12), min_size=1, max_size=3)
        n_users = data.draw(sizes, label="n_users")
        n_items = data.draw(st.lists(st.integers(1, 12), min_size=len(n_users),
                                     max_size=len(n_users)), label="n_items")
        rows = [(z, data.draw(st.integers(0, n_users[z] - 1)),
                 data.draw(st.integers(0, n_items[z] - 1)),
                 data.draw(st.integers(1, n_levels)))
                for z in data.draw(st.lists(st.integers(0, len(n_users) - 1), max_size=30),
                                   label="domains")]
        ds = CrossDomainDataset.from_indexed(n_levels, np.array(rows, dtype=np.int64),
                                             n_users, n_items)
        ds.user_ids = [data.draw(st.lists(st.text(max_size=4), min_size=m, max_size=m))
                       for m in n_users]
        assert _dataset_files(save_dataset, ds) == _dataset_files(save_dataset_reference, ds)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, tmp)
            back = load_dataset(tmp)
        assert rows_of(back) == rows_of(ds)
        assert (back.n_levels, back.n_users, back.n_items) == (n_levels, n_users, n_items)
        assert (back.user_ids, back.item_ids) == (ds.user_ids, ds.item_ids)

    def test_benchmark_size_matches_reference(self):
        # 30k rows: two blocks of BLOCK_ROWS, 4-digit indices
        dims = ModelDims(n_domains=2, n_user_clusters=3, n_common_clusters=2,
                         n_specific_clusters=(2, 2), n_levels=5,
                         n_users=(1000, 1000), n_items=(1500, 1500))
        ds, _ = synth_generate(SyntheticSpec(dims=dims, w1=(0.7, 0.7), density=0.01, seed=1))
        assert _dataset_files(save_dataset, ds) == _dataset_files(save_dataset_reference, ds)

    def test_negative_index_rejected(self, tmp_path, tiny_dataset):
        tiny_dataset.items[1][0] = -1
        with pytest.raises(DataError, match="negative index"):
            save_dataset(tiny_dataset, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


def _replace_line_4(directory, row):
    """Put ``row`` on line 4 of ratings.csv (the header is line 1), keeping
    the CRLF line ends save_dataset writes."""
    ratings = directory / "ratings.csv"
    lines = ratings.read_bytes().decode().split("\r\n")
    lines[3] = row
    ratings.write_bytes("\r\n".join(lines).encode())
    return str(ratings)


class TestRatingsReader:
    """load_dataset's one-read path accepts and rejects what the
    row-by-row parser does, with the same messages."""

    @pytest.mark.parametrize("row, message", [
        ("", "{path}:4: expected 4 integers, got []"),
        ('0,"1,2",1,3', "{path}:4: expected 4 integers, got ['0', '1,2', '1', '3']"),
        ("0,1,1,3,7", "{path}:4: expected 4 integers, got ['0', '1', '1', '3', '7']"),
        ("0,1,1.0,3", "{path}:4: expected 4 integers, got ['0', '1', '1.0', '3']"),
        ("0,1,1,3#", "{path}:4: expected 4 integers, got ['0', '1', '1', '3#']"),
        ("1,5,0,2", "triple RatingTriple(domain=1, user=5, item=0, rating=2) "
                    "outside declared index space"),
        ("0,1,1,6", "rating level 6 outside 1..5"),
        ("2,0,0,1", "domain 2 out of range"),
        ("0,-1,0,1", "triple RatingTriple(domain=0, user=-1, item=0, rating=1) "
                     "outside declared index space"),
        ("0,99999999999999999999,0,1", "triple RatingTriple(domain=0, "
         "user=99999999999999999999, item=0, rating=1) outside declared index space"),
    ], ids=["blank", "quoted-comma", "extra-column", "not-integer", "comment", "user-range",
            "level-range", "domain-range", "negative", "past-int64"])
    def test_bad_row_message(self, tmp_path, tiny_dataset, row, message):
        save_dataset(tiny_dataset, str(tmp_path))
        path = _replace_line_4(tmp_path, row)
        with pytest.raises(DataError) as exc:
            load_dataset(str(tmp_path))
        assert str(exc.value) == message.format(path=path)

    @pytest.mark.parametrize("row", ['0,"1",1,3', " 0, 1, 1, 3", "+0,1,1,3", "0,01,1,3"])
    def test_row_only_the_parser_reads(self, tmp_path, tiny_dataset, row):
        save_dataset(tiny_dataset, str(tmp_path))
        _replace_line_4(tmp_path, row)
        loaded = load_dataset(str(tmp_path))
        expected = rows_of(tiny_dataset)
        expected[2] = (0, 1, 1, 3)
        assert rows_of(loaded) == expected

    def test_first_bad_triple_in_order_is_named(self):
        rows = np.array([[0, 0, 0, 1], [0, 0, 0, 9], [3, 0, 0, 1], [0, 7, 0, 1]])
        with pytest.raises(DataError, match=r"^rating level 9 outside 1\.\.5$"):
            CrossDomainDataset.from_indexed(5, rows, [2], [2])

    def test_array_rows_build_the_dataset(self, tiny_dataset):
        rows = rows_of(tiny_dataset)
        ds = CrossDomainDataset.from_indexed(5, np.array(rows, dtype=np.int32), [3, 2], [2, 3])
        assert rows_of(ds) == rows
        assert all(a.dtype == np.int64 for a in ds.users + ds.items + ds.ratings)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(alphabet="0123456789,\n\r \"+-.#", max_size=40),
        st.lists(st.lists(st.integers(0, 4).map(str), min_size=3, max_size=5)
                 .map(",".join), max_size=8).map("\r\n".join),
    ))
    def test_reader_matches_parser(self, tmp_path_factory, body):
        path = tmp_path_factory.mktemp("ratings") / "ratings.csv"
        path.write_bytes(b"domain,user_idx,item_idx,rating\r\n" + body.encode())

        def outcome(read):
            try:
                return rows_of(CrossDomainDataset.from_indexed(
                    5, read(str(path), 5, [3, 3], [3, 3]), [3, 3], [3, 3]))
            except Exception as exc:   # the two readers must fail alike
                return type(exc).__name__, str(exc)

        assert outcome(_read_ratings_csv) == outcome(_parse_ratings_csv)


def _shuffled_dataset(counts, seed):
    """One domain, user u with counts[u] ratings, stored in shuffled order."""
    rows = np.array([(0, u, j, (u * 7 + j) % 5 + 1)
                     for u, c in enumerate(counts) for j in range(c)])
    order = np.random.default_rng(seed).permutation(len(rows))
    return CrossDomainDataset.from_indexed(
        n_levels=5, triples=rows[order],
        n_users=[len(counts)], n_items=[max(counts)],
    )


class TestGivenNSplitReference:
    """The columnar split against the per-user dict loop it replaced."""

    @pytest.mark.parametrize("counts, n_train, n_given", [
        ([5, 30, 12, 1, 9], 1, 10),
        ([5, 30, 12, 1, 9], 0, 4),          # every user is a test user
        ([8, 9, 10], 1, 0),                 # Given 0: test users keep nothing
        ([8, 9, 10, 3], 2, 10),             # Given >= a user's count
        ([4, 4, 4], 1, 4),                  # Given == every count: no eval rating
        ([6, 0, 11, 0, 3, 14], 2, 5),       # users without ratings
    ], ids=["mixed", "no-train-users", "given-0", "given-above-count", "given-equal",
            "unrated-users"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_reference(self, counts, n_train, n_given, seed):
        ds = _shuffled_dataset(counts, seed)
        got = given_n_split(ds, 0, n_train, n_given, seed=seed)
        want = given_n_split_reference(ds, 0, n_train, n_given, seed=seed)
        assert got.train_pool == want.train_pool
        assert got.eval_set == want.eval_set

    def test_matches_reference_on_synthetic_domains(self):
        dims = ModelDims(n_domains=2, n_user_clusters=3, n_common_clusters=2,
                         n_specific_clusters=(2, 1), n_levels=5,
                         n_users=(40, 30), n_items=(25, 35))
        ds, _ = synth_generate(SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=0.3, seed=2))
        for z in range(2):
            for n_given in (0, 3, 8, 40):
                got = given_n_split(ds, z, 10, n_given, seed=7 + z)
                want = given_n_split_reference(ds, z, 10, n_given, seed=7 + z)
                assert got.train_pool == want.train_pool
                assert got.eval_set == want.eval_set

    def test_positions_restrict_like_triples(self):
        ds = _shuffled_dataset([5, 30, 12, 1, 9], 1)
        train, _ = _given_n_positions(ds, 0, 1, 4, seed=3)
        by_positions = ds.restrict([train])
        triples = given_n_split(ds, 0, 1, 4, seed=3).train_pool
        assert rows_of(by_positions) == [tuple(t) for t in triples]
        assert all(a.dtype == np.int64
                   for a in by_positions.users + by_positions.items + by_positions.ratings)

    def test_positions_need_one_array_per_domain(self, tiny_dataset):
        with pytest.raises(DataError, match="2 position arrays"):
            tiny_dataset.restrict(positions=[np.arange(2)])


class TestDatasetViews:
    def test_domain_view(self, tiny_dataset):
        view = tiny_dataset.domain_view(1)
        assert view.n_domains == 1
        assert view.n_ratings == [3]
        assert view.n_users == [2]

    def test_restrict_keeps_index_space(self, tiny_dataset):
        restricted = tiny_dataset.restrict([np.arange(2), np.arange(0)])
        assert restricted.n_users == tiny_dataset.n_users
        assert restricted.n_items == tiny_dataset.n_items
        assert restricted.n_ratings == [2, 0]

    def test_pooled_offsets(self, tiny_dataset):
        gu, gv, r = tiny_dataset.pooled()
        assert gu.max() < tiny_dataset.total_users
        assert gv.max() < tiny_dataset.total_items
        assert len(r) == sum(tiny_dataset.n_ratings)
