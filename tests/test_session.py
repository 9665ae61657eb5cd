"""The acquisition-session layer: one construction path, one seed policy."""

import pytest

from repro.core.campaign import AttackCampaign
from repro.core.characterize import characterize
from repro.core.covert_channel import CovertChannel
from repro.core.fingerprint import DnnFingerprinter
from repro.core.rsa_attack import RsaHammingWeightAttack
from repro.core.sampler import HwmonSampler
from repro.session import DEFAULT_BOARD, AttackSession, normalize_seed
from repro.soc.soc import QUANTITY_ATTRS, Soc

#: Every attack pipeline; each is built from a session and nothing else.
PIPELINES = (
    DnnFingerprinter,
    RsaHammingWeightAttack,
    CovertChannel,
    AttackCampaign,
    characterize,
)


class TestSeedPolicy:
    def test_none_normalizes_to_zero(self):
        assert normalize_seed(None) == 0

    def test_integers_pass_through(self):
        assert normalize_seed(7) == 7
        assert normalize_seed(0) == 0

    def test_session_applies_policy(self):
        assert AttackSession.create(seed=None).seed == 0
        assert AttackSession.create(seed=11).seed == 11

    def test_unseeded_sessions_are_identical(self):
        # None and 0 used to diverge between pipelines; now every
        # construction path records the same session.
        a = AttackSession.create(seed=None)
        b = AttackSession.create(seed=0)
        ta = a.sampler.collect("fpga", "current", n_samples=50)
        tb = b.sampler.collect("fpga", "current", n_samples=50)
        assert (ta.values == tb.values).all()
        assert (ta.times == tb.times).all()


class TestConstruction:
    def test_default_board(self):
        session = AttackSession.create()
        assert session.board.name == DEFAULT_BOARD

    def test_other_boards(self):
        session = AttackSession.create(board="ZCU111", seed=3)
        assert session.board.name == "ZCU111"
        assert session.sampler.soc is session.soc

    def test_rejects_non_soc(self):
        with pytest.raises(TypeError):
            AttackSession("ZCU102")

    def test_derive_is_stable(self):
        session = AttackSession.create(seed=5)
        assert session.derive("cv") == session.derive("cv")
        assert session.derive("cv") != session.derive("forest")


class TestChannelRegistry:
    def test_domains_match_sensitive_channels(self):
        session = AttackSession.create()
        assert session.domains() == [
            domain for domain, _ in session.soc.sensitive_channels()
        ]

    def test_channels_cross_product(self):
        session = AttackSession.create()
        channels = session.channels()
        assert len(channels) == len(session.domains()) * len(QUANTITY_ATTRS)
        assert ("fpga", "current") in channels

    def test_channels_filtered(self):
        session = AttackSession.create()
        only_current = session.channels(("current",))
        assert {quantity for _, quantity in only_current} == {"current"}

    def test_channels_rejects_unknown_quantity(self):
        with pytest.raises(ValueError, match="unknown quantity"):
            AttackSession.create().channels(("amperes",))


class TestResolveSession:
    """A pipeline's session is the one passed in, else a default one."""

    def test_session_wins(self):
        session = AttackSession.create(seed=2)
        assert RsaHammingWeightAttack(session).session is session

    def test_session_conflicts_rejected(self):
        # A SoC or sampler can only reach a pipeline inside its session.
        session = AttackSession.create(seed=2)
        other = Soc("ZCU102", seed=3)
        with pytest.raises(TypeError, match="soc"):
            RsaHammingWeightAttack(session, soc=other)
        with pytest.raises(TypeError, match="sampler"):
            RsaHammingWeightAttack(
                session, sampler=HwmonSampler(other, seed=3)
            )

    def test_wraps_legacy_soc(self):
        # What a pipeline built from ``soc=, seed=`` now spells out.
        soc = Soc("ZCU102", seed=4)
        session = AttackSession(soc, seed=4)
        assert AttackCampaign(session).soc is soc
        assert session.seed == 4

    def test_wraps_legacy_sampler(self):
        soc = Soc("ZCU102", seed=4)
        sampler = HwmonSampler(soc, seed=4)
        session = AttackSession(soc, sampler=sampler, seed=4)
        assert RsaHammingWeightAttack(session).sampler is sampler
        assert session.soc is soc

    def test_board_shortcut(self):
        session = AttackSession.create(board="VCK190", seed=1)
        assert CovertChannel(session).soc.board.name == "VCK190"

    def test_default_fallback(self):
        for pipeline in (RsaHammingWeightAttack, CovertChannel, AttackCampaign):
            session = pipeline().session
            assert session.board.name == DEFAULT_BOARD
            assert session.seed == 0


class TestSharedSession:
    def test_pipelines_share_one_foothold(self):
        session = AttackSession.create(seed=9)
        fingerprinter = DnnFingerprinter(session)
        attack = RsaHammingWeightAttack(session)
        campaign = AttackCampaign(session)
        assert fingerprinter.soc is session.soc
        assert attack.sampler is session.sampler
        assert campaign.soc is session.soc
        assert fingerprinter.seed == attack.seed == 9

    @pytest.mark.parametrize(
        "pipeline,spelling",
        [
            (pipeline, spelling)
            for pipeline in PIPELINES
            for spelling in ("seed", "board")
            # characterize keeps ``seed``: it keys the virus/RO streams.
            if not (pipeline is characterize and spelling == "seed")
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_session_arguments_cannot_be_overridden(self, pipeline, spelling):
        # The session fixes board and seed; nothing may override them.
        session = AttackSession.create(seed=1)
        value = {"seed": 5, "board": "VCK190"}[spelling]
        with pytest.raises(TypeError, match=spelling):
            pipeline(session=session, **{spelling: value})
