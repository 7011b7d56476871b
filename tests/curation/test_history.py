"""The curation-history log and the curated view."""

import datetime as dt

import pytest

from repro.curation.history import CurationHistory, Proposal
from repro.errors import CurationError
from repro.sounds.collection import SoundCollection
from repro.sounds.record import SoundRecord


def setup_history():
    collection = SoundCollection("h")
    collection.add(SoundRecord(record_id=1, species="HYLA alba",
                               collect_date=dt.date(1975, 1, 1)))
    collection.add(SoundRecord(record_id=2, species="Scinax ruber"))
    return collection, CurationHistory(collection)


@pytest.fixture()
def setup():
    return setup_history()


class TestPropose:
    def test_flagged_by_default(self, setup):
        __, history = setup
        change = history.propose(1, "species", "HYLA alba", "Hyla alba",
                                 "stage1.1-cleaning")
        assert change.status == "flagged"
        assert len(history) == 1

    def test_auto_approve(self, setup):
        __, history = setup
        change = history.propose(1, "species", "HYLA alba", "Hyla alba",
                                 "stage1.1-cleaning", auto_approve=True)
        assert change.status == "approved"

    def test_unknown_record_rejected(self, setup):
        from repro.errors import ConstraintViolation

        __, history = setup
        with pytest.raises(ConstraintViolation, match="FOREIGN KEY"):
            history.propose(999, "species", None, "x", "step")


class TestProposeMany:
    PROPOSALS = [
        Proposal(1, "species", "HYLA alba", "Hyla alba", "clean",
                 note="capitalization", auto_approve=True, curator="algo"),
        Proposal(2, "latitude", None, -23.5, "geo", note="geocoded"),
        Proposal(1, "collect_date", dt.date(1975, 1, 1), None, "eras"),
        Proposal(2, "species", "Scinax ruber", None, "names"),
    ]

    @staticmethod
    def _rows(history):
        return history.database.query("curation_history").order_by(
            "change_id").all()

    def test_equals_a_sequence_of_propose_calls(self, setup):
        __, one_by_one = setup
        __, batched = setup_history()
        singles = [one_by_one.propose(*proposal)
                   for proposal in self.PROPOSALS]
        batch = batched.propose_many(self.PROPOSALS)
        assert [repr(change) for change in batch] \
            == [repr(change) for change in singles]
        assert [(c.change_id, c.status, c.curator, c.note)
                for c in batch] \
            == [(c.change_id, c.status, c.curator, c.note)
                for c in singles]
        assert self._rows(batched) == self._rows(one_by_one)
        # numbering continues after the batch as after the calls
        assert batched.propose(2, "notes", None, "x", "s").change_id \
            == one_by_one.propose(2, "notes", None, "x", "s").change_id

    def test_violating_batch_changes_nothing(self, setup):
        from repro.errors import ConstraintViolation

        __, history = setup
        history.propose(1, "species", "a", "b", "s")
        rows, next_id = self._rows(history), history._next_id
        with pytest.raises(ConstraintViolation, match="FOREIGN KEY"):
            history.propose_many([
                Proposal(2, "species", None, "x", "s"),
                Proposal(999, "species", None, "x", "s"),
            ])
        assert self._rows(history) == rows
        assert history._next_id == next_id
        assert history.propose(2, "species", None, "x", "s").change_id == 2

    def test_empty_batch(self, setup):
        __, history = setup
        assert history.propose_many([]) == []
        assert len(history) == 0


class TestReviewWorkflow:
    def test_approve(self, setup):
        __, history = setup
        change = history.propose(1, "species", "HYLA alba", "Hyla alba",
                                 "s")
        history.approve(change.change_id, curator="dr. toledo")
        changes = history.history_for(1)
        assert changes[0].status == "approved"
        assert changes[0].curator == "dr. toledo"

    def test_reject(self, setup):
        __, history = setup
        change = history.propose(1, "species", "HYLA alba", "Wrong name",
                                 "s")
        history.reject(change.change_id)
        assert history.history_for(1)[0].status == "rejected"

    def test_double_review_rejected(self, setup):
        __, history = setup
        change = history.propose(1, "species", "a", "b", "s")
        history.approve(change.change_id)
        with pytest.raises(CurationError):
            history.reject(change.change_id)

    def test_approve_step_bulk(self, setup):
        __, history = setup
        history.propose(1, "latitude", None, -23.0, "geo")
        history.propose(1, "longitude", None, -47.0, "geo")
        history.propose(2, "species", "a", "b", "names")
        assert history.approve_step("geo") == 2
        assert len(history.pending()) == 1

    def test_pending_filter_by_step(self, setup):
        __, history = setup
        history.propose(1, "latitude", None, -23.0, "geo")
        history.propose(2, "species", "a", "b", "names")
        assert len(history.pending(step="geo")) == 1


class TestCuratedView:
    def test_original_never_mutated(self, setup):
        collection, history = setup
        change = history.propose(1, "species", "HYLA alba", "Hyla alba", "s")
        history.approve(change.change_id)
        assert collection.record(1).species == "HYLA alba"  # original
        assert history.curated_record(1).species == "Hyla alba"  # view

    def test_flagged_changes_not_applied(self, setup):
        __, history = setup
        history.propose(1, "species", "HYLA alba", "Hyla alba", "s")
        assert history.curated_record(1).species == "HYLA alba"

    def test_rejected_changes_not_applied(self, setup):
        __, history = setup
        change = history.propose(1, "species", "HYLA alba", "Bad", "s")
        history.reject(change.change_id)
        assert history.curated_record(1).species == "HYLA alba"

    def test_latest_approved_wins(self, setup):
        __, history = setup
        first = history.propose(1, "species", "HYLA alba", "Hyla alba", "s")
        second = history.propose(1, "species", "Hyla alba", "Hyla albata",
                                 "s2")
        history.approve(first.change_id)
        history.approve(second.change_id)
        assert history.curated_record(1).species == "Hyla albata"

    def test_numeric_values_coerced_back(self, setup):
        __, history = setup
        change = history.propose(1, "latitude", None, -23.55, "geo")
        history.approve(change.change_id)
        assert history.curated_record(1).latitude == pytest.approx(-23.55)

    def test_curated_records_iterates_all(self, setup):
        collection, history = setup
        records = list(history.curated_records())
        assert len(records) == len(collection)

    def test_curated_records_equals_per_record_view(self):
        """The grouped read gives exactly what ``curated_record`` gives
        record by record: the highest approved change id per field wins,
        flagged and rejected changes are ignored, dates round-trip."""
        collection = SoundCollection("grouped")
        for record_id in range(1, 6):
            collection.add(SoundRecord(
                record_id=record_id, species=f"Hyla sp{record_id}",
                collect_date=dt.date(1980 + record_id, 6, 1)))
        history = CurationHistory(collection)

        def approved(record_id, field, new, old=None):
            change = history.propose(record_id, field, old, new, "s")
            history.approve(change.change_id)

        approved(1, "species", "Hyla alba")
        approved(1, "species", "Hyla albata")
        approved(1, "species", "Hyla albina")
        approved(2, "collect_date", dt.date(2001, 2, 3))
        approved(2, "collect_date", dt.date(2002, 3, 4))
        approved(2, "latitude", -23.5)
        history.propose(2, "latitude", -23.5, 10.0, "s")  # stays flagged
        rejected = history.propose(3, "species", None, "Nope nope", "s")
        history.reject(rejected.change_id)
        approved(4, "collect_date", None, dt.date(1984, 6, 1))
        approved(1, "species", "Hyla final")

        grouped = list(history.curated_records())
        assert grouped == [history.curated_record(record.record_id)
                           for record in collection.records()]
        by_id = {record.record_id: record for record in grouped}
        assert by_id[1].species == "Hyla final"
        assert by_id[2].collect_date == dt.date(2002, 3, 4)
        assert isinstance(by_id[2].collect_date, dt.date)
        assert by_id[2].latitude == pytest.approx(-23.5)
        assert by_id[3].species == "Hyla sp3"
        assert by_id[4].collect_date is None
        assert by_id[5] == collection.record(5)

    def test_summary(self, setup):
        __, history = setup
        history.propose(1, "species", "a", "b", "s")
        change = history.propose(2, "species", "a", "b", "s")
        history.approve(change.change_id)
        summary = history.summary()
        assert summary["flagged"] == 1
        assert summary["approved"] == 1
        assert summary["total"] == 2
