from random import Random

import pytest

from magnuslie import gate, report as pipeline
from magnuslie import (HypothesisReport, Presentation, RunConfig, WeightScheme,
                       check_relator_hypotheses, filtration_degree, free_reduce,
                       group_commutator, leading_lie_form, parse_word,
                       random_word, run_report, word_multiply, invert_word)

COMM = group_commutator((1,), (2,))


def nested(degree):
    """[[...[[x1,x2],x1],x2]...]: its length doubles with each degree."""
    u = COMM
    for k in range(degree - 2):
        u = group_commutator(u, (1 + k % 2,))
    return u


# [[[[x1,x2],x1],[[x1,x2],x2]], [[[x1,x2],x1],[[[x1,x2],x2],x2]]] has
# degree 6 + 7 = 13 in 142 letters, where nested(13) needs 12,286
DEGREE_13 = group_commutator(
    group_commutator(group_commutator(COMM, (1,)), group_commutator(COMM, (2,))),
    group_commutator(group_commutator(COMM, (1,)),
                     group_commutator(group_commutator(COMM, (2,)), (2,))))


def test_accepts_commutator_relator():
    pres = Presentation(m=2, n=1, u=COMM, v=(3,), e=3)
    report = check_relator_hypotheses(pres, 8)
    assert report.accepted
    assert not report.inconclusive
    assert report.d == 2
    assert report.rho.coords == {(0, 1): 1}
    assert report.content == 1
    assert report.chosen_e == 3
    assert report.failures == ()


def test_rejects_proper_power():
    pres = Presentation(m=1, n=1, u=(1, 1), v=(2,))
    report = check_relator_hypotheses(pres, 8)
    assert not report.accepted
    assert report.d == 1
    assert report.rho.coords == {(0,): 2}
    assert report.content == 2
    assert report.chosen_e == 2  # defaulted to d + 1
    assert any("content 2" in f for f in report.failures)


def test_rejects_trivial_v():
    pres = Presentation(m=2, n=1, u=COMM, v=())
    report = check_relator_hypotheses(pres, 8)
    assert not report.accepted
    assert any("v is the trivial word" in f for f in report.failures)
    # the u analysis still runs
    assert report.d == 2 and report.content == 1


def test_rejects_u_outside_x_factor():
    pres = Presentation(m=2, n=1, u=(1, 3), v=(3,))
    report = check_relator_hypotheses(pres, 8)
    assert not report.accepted
    assert any("x-generators" in f for f in report.failures)
    assert report.d is None and report.rho is None


def test_rejects_e_not_above_d():
    pres = Presentation(m=2, n=1, u=COMM, v=(3,), e=2)
    report = check_relator_hypotheses(pres, 8)
    assert not report.accepted
    assert any("must exceed" in f for f in report.failures)


def test_inconclusive_when_cutoff_below_degree():
    pres = Presentation(m=2, n=1, u=COMM, v=(3,), e=3)
    report = check_relator_hypotheses(pres, 1)
    assert report.inconclusive
    assert not report.accepted
    assert report.d is None
    assert any("not certified" in f for f in report.failures)


def test_accepted_iff_no_failures():
    cases = [
        Presentation(m=2, n=1, u=COMM, v=(3,), e=3),
        Presentation(m=1, n=1, u=(1, 1), v=(2,)),
        Presentation(m=2, n=1, u=COMM, v=()),
        Presentation(m=2, n=1, u=(), v=(3,)),
        Presentation(m=2, n=2, u=(1,), v=(3, 4)),
    ]
    for pres in cases:
        report = check_relator_hypotheses(pres, 8)
        assert report.accepted == (not report.failures)


def test_scaling_detector():
    scheme = WeightScheme(2, 1, 1)
    base_words = [COMM, group_commutator(COMM, (1,)), (1,)]
    for base in base_words:
        baseline = check_relator_hypotheses(
            Presentation(m=2, n=1, u=base, v=(3,)), 10)
        assert baseline.accepted and baseline.content == 1
        for k in (2, 3):
            powered = ()
            for _ in range(k):
                powered = word_multiply(powered, base)
            report = check_relator_hypotheses(
                Presentation(m=2, n=1, u=powered, v=(3,)), 10)
            assert not report.accepted
            assert report.d == baseline.d
            assert report.content == k
            assert report.rho == baseline.rho.with_scheme(report.rho.scheme).scale(k)


def test_leading_form_of_full_relator_matches_rho():
    # u v^-1 has the same leading form as u: the v part sits deeper
    pres = Presentation(m=2, n=1, u=COMM, v=(3,), e=3)
    report = check_relator_hypotheses(pres, 8)
    relator = word_multiply(pres.u, invert_word(pres.v))
    scheme = report.rho.scheme
    assert scheme == WeightScheme(2, 1, 3)
    d, form = leading_lie_form(relator, scheme, 8)
    assert d == report.d
    assert form == report.rho


def test_stability_on_random_accepted_inputs():
    rng = Random(17)
    scheme_a = WeightScheme(2, 0, 1)
    found = 0
    while found < 20:
        u = random_word(rng, scheme_a, 8)
        v_len = rng.randrange(1, 4)
        v = free_reduce([3] * v_len, WeightScheme(2, 1, 1))
        pres = Presentation(m=2, n=1, u=u, v=v)
        report = check_relator_hypotheses(pres, 8)
        if not report.accepted:
            continue
        found += 1
        relator = word_multiply(u, invert_word(v))
        d, form = leading_lie_form(relator, report.rho.scheme, 8)
        assert (d, form) == (report.d, report.rho)


def test_one_embedding_matches_degree_then_leading_form():
    # oracle: d from filtration_degree, the form from a second embedding
    rng = Random(5)
    x_scheme = WeightScheme(2, 0, 1)
    nested = [COMM]
    while len(nested) < 3:
        nested.append(group_commutator(nested[-1], (1 + len(nested) % 2,)))
    words = nested + [random_word(rng, x_scheme, 10) for _ in range(40)]
    conclusive = inconclusive = 0
    for u in words:
        if not u:
            continue
        for cutoff in range(1, 7):
            report = check_relator_hypotheses(Presentation(m=2, n=1, u=u, v=(3,)), cutoff)
            bound = filtration_degree(u, x_scheme, cutoff)
            assert report.inconclusive == (not bound.exact)
            if report.inconclusive:
                inconclusive += 1
                assert report.d is None and report.rho is None
                continue
            conclusive += 1
            _, rho_x = leading_lie_form(u, x_scheme, cutoff)
            assert report.d == bound.bound
            assert report.rho == rho_x.with_scheme(WeightScheme(2, 1, bound.bound + 1))
    assert conclusive and inconclusive


def test_determinism():
    pres = Presentation(m=2, n=1, u=COMM, v=(3,), e=3)
    assert check_relator_hypotheses(pres, 8) == check_relator_hypotheses(pres, 8)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(m=0, n=1, u=(1,), v=(2,))
    with pytest.raises(ValueError):
        Presentation(m=1, n=1, u=(1, -1), v=(2,))  # not reduced
    with pytest.raises(ValueError):
        Presentation(m=1, n=1, u=(5,), v=(2,))  # out of range
    with pytest.raises(ValueError):
        Presentation(m=1, n=1, u=(1,), v=(2,), e=0)


def _spy_on_windows(monkeypatch) -> list[int]:
    """The windows the gate embeds u at, in order, from now on."""
    seen = []
    kernel = gate.leading_lie_form

    def spy(word, scheme, window):
        seen.append(window)
        return kernel(word, scheme, window)

    monkeypatch.setattr(gate, "leading_lie_form", spy)
    return seen


@pytest.mark.parametrize("u, cutoff, windows, d", [
    (COMM, 200, [4], 2),
    # [[[[x1,x2],x1],x1],x1] has degree 5
    (group_commutator(group_commutator(group_commutator(COMM, (1,)), (1,)),
                      (1,)), 100, [4, 8], 5),
    (group_commutator(group_commutator(group_commutator(COMM, (1,)), (1,)),
                      (1,)), 6, [4, 6], 5),
    (group_commutator(group_commutator(group_commutator(COMM, (1,)), (1,)),
                      (1,)), 3, [3], None),
    # without a cutoff the windows stop at 12, and the report names the
    # window that decided
    (COMM, None, [4], 2),
    (nested(5), None, [4, 8], 5),
    (nested(9), None, [4, 8, 12], 9),
    (DEGREE_13, None, [4, 8, 12], None),
])
def test_the_gate_embeds_u_in_doubling_windows(monkeypatch, u, cutoff,
                                               windows, d):
    seen = _spy_on_windows(monkeypatch)
    report = check_relator_hypotheses(Presentation(m=2, n=1, u=u, v=(3,)),
                                      cutoff)
    assert seen == windows
    assert report.d == d
    assert report.cutoff == (windows[-1] if cutoff is None else cutoff)
    assert report.inconclusive is (d is None)
    if d is None:
        assert report.failures == (
            f"degree of u not certified at cutoff {report.cutoff}: "
            f"inconclusive, raise the cutoff",)


@pytest.mark.parametrize("commutators, windows, cutoff, d", [
    (1, [4], 4, 2),
    (4, [4, 8], 8, 5),
    # [[[[[[[[x1,x2],x1],x1],x1],x1],x1],x1],x1] has degree 9
    (8, [4, 8, 12], 12, 9),
])
def test_the_cutoff_ladder_embeds_each_window_once(tmp_path, monkeypatch,
                                                  commutators, windows,
                                                  cutoff, d):
    u = "x1"
    for _ in range(commutators):
        u = f"[{u}, x{2 if u == 'x1' else 1}]"
    path = tmp_path / "deep.pres"
    path.write_text(f"generators x: 2\ngenerators y: 1\nrelator: {u} = y1\n")
    seen = _spy_on_windows(monkeypatch)
    report = run_report(RunConfig(input_path=str(path), checks=("gate",)))
    assert seen == windows
    assert report.gate.cutoff == cutoff
    assert report.gate.d == d


def test_an_uncapped_run_decides_the_gate_in_one_call(tmp_path, monkeypatch):
    # the gate chooses its own windows; the pipeline only asks it once
    path = tmp_path / "deep.pres"
    path.write_text("generators x: 2\ngenerators y: 1\n"
                    "relator: [[[[x1,x2],x1],x1],x1] = y1\n")
    calls = []
    kernel = pipeline.check_relator_hypotheses

    def spy(pres, cutoff=None):
        calls.append(cutoff)
        return kernel(pres, cutoff)

    monkeypatch.setattr(pipeline, "check_relator_hypotheses", spy)
    report = run_report(RunConfig(input_path=str(path), checks=("gate",)))
    assert calls == [None]
    assert (report.gate.d, report.gate.cutoff) == (5, 8)
