"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Two checks rest on short calculations, given here.

Criterion 3, the eigenvector tuple of the worked example after the step.
The entries are read in the collapsed automaton's OSE order, which
criterion 1 pins: (2,x), (2,x^-1), (2,z^-1), (2,t), (3,y), (3,z),
(4,y^-1), (4,z^-1), (5,z), (5,t^-1).  The rows of M1 v = lam v give

* the x-loop at vertex 2: (2,x) and (2,x^-1) both lead to (3,z) and
  (5,t^-1) besides themselves, so lam (v1 - v2) = v1 - v2, and since
  lam != 1, v1 = v2;
* the 4-cycle z.y^-1.z.t: v6 = v4 / lam^3 and v10 = v3 / lam^3, so rows 3
  and 4 give lam^4 (v3 - v4) = v3 - v4, hence v3 = v4.

Normalised at entry 6 the eigenvector is
(2/(lam-1), 2/(lam-1), lam^3, lam^3, lam^2, 1, lam, lam, lam^2, 1), where
lam = lambda1 = 1.640586 is the real root above 1 of
lam^5 - lam^4 - lam - 3 = 0 (row 3: lam^4 = 4/(lam-1) + 1).  That is
(3.12, 3.12, 4.41, 4.41, 2.69, 1.0, 1.64, 1.64, 2.69, 1.0).

Criterion 6, the census against the Perron-Frobenius eigenpair.  The
cogrowth is limsup a_n^(1/n) and comes with no rate: a_n^(1/n) is about
lam * C^(1/n), and the worked example has C of about 0.34, while
periodic subgroups have a_n = 0 for every n off the period.  What PF
theory does prove, for every n, are two bounds.  Let M be the OSE
adjacency matrix (M_ij = 1 iff i -> j), (lam, v) its PF eigenpair with
v > 0, I = F the root states, k = |I| - 1 the ambiguity and N the number
of states, so that k a_n = 1_I^T M^n 1_F.

* upper: k a_n <= lam^n sum_I v / min_F v, since 1_F <= v / min_F v
  and M^n >= 0;
* windowed lower: k (a_n + ... + a_(n+N-1)) >= lam^n |F| sum_I v / max v,
  since sum_(j<N) M^j >= J (the all-ones matrix) for an irreducible M,
  and 1 >= v / max v.

The only slack is a relative 1e-6 for the floating-point eigenpair: the
upper bound holds with equality on roses and on some periodic subgroups.
"""

import random
import time

import numpy as np
import pytest

from cogrowth import pipeline
from cogrowth.automaton import (
    accepts,
    build_automaton,
    collapse_automaton,
    isomorphic,
    sample_accepted_word,
    word_census,
)
from cogrowth.cli import main, state_names
from cogrowth.core_graph import build_core, collapse_core, label_sets
from cogrowth.errors import NoCutVertexError
from cogrowth.spectral import certify_inequality, ose, pf_eigen
from cogrowth.whitehead import find_cut_vertices, whitehead_graph_of_core
from cogrowth.words import format_word, parse_word

import conftest
import oracles
from test_spectral import EXAMPLE_M


def report(criterion, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    conftest.record_acceptance(line)
    return ok


@pytest.fixture(scope="module")
def runs(corpus):
    """Pipeline artifacts for every corpus instance, computed once."""
    t0 = time.monotonic()
    out = []
    for inst in corpus:
        core = build_core(list(inst.gens), inst.alphabet)
        aut = build_automaton(core)
        entry = {"inst": inst, "core": core, "aut": aut, "step": None, "error": None}
        if core.n_vertices > 1:
            try:
                entry["step"] = pipeline.reduce_step(core, inst.gens)
            except NoCutVertexError as exc:
                entry["error"] = exc
        out.append(entry)
    return out, time.monotonic() - t0


def test_criterion_1_example_structure(example_alphabet):
    ab = example_alphabet
    t0 = time.monotonic()
    gens = [parse_word("yX", ab), parse_word("yzYzt", ab)]
    core = build_core(gens, ab)
    ls = label_sets(core)
    expected_labels = {
        1: "x y T", 2: "X Y z", 3: "Y Z", 4: "y z", 5: "Z t",
    }
    ok = core.n_vertices == 5
    for v, spec in expected_labels.items():
        ok = ok and ls[v] == frozenset(parse_word(s, ab)[0] for s in spec.split())

    cuts = {r.letter for r in find_cut_vertices(whitehead_graph_of_core(ls, 4))}
    ok = ok and 2 in cuts

    step = pipeline.reduce_step(core, gens)
    ok = ok and step.phi.a == 2 and step.phi.members == frozenset({1, -4})
    ok = ok and [format_word(w, ab) for w in step.gens_after] == ["X", "zYzt"]
    ok = ok and step.m.collapse.elements == ((2, 2), (1, -2))  # (2,y), (1,y^-1)
    ok = ok and step.aut_before.n_states == 12
    ok = ok and step.aut_after.n_states == 10

    ok = ok and state_names(ose(step.aut_before).states, ab) == [
        "(1,x^-1)", "(1,y^-1)", "(1,t)", "(2,x)", "(2,y)", "(2,z^-1)",
        "(3,y)", "(3,z)", "(4,y^-1)", "(4,z^-1)", "(5,z)", "(5,t^-1)",
    ]
    ok = ok and state_names(step.m.states, ab) == [
        "(2,x)", "(1,x^-1)", "(2,z^-1)", "(1,t)", "(3,y)", "(3,z)",
        "(4,y^-1)", "(4,z^-1)", "(5,z)", "(5,t^-1)", "(2,y)", "(1,y^-1)",
    ]
    ok = ok and state_names(step.m1.states, ab) == [
        "(2,x)", "(2,x^-1)", "(2,z^-1)", "(2,t)", "(3,y)", "(3,z)",
        "(4,y^-1)", "(4,z^-1)", "(5,z)", "(5,t^-1)",
    ]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    assert report("1 worked-example structure", ok, f"{elapsed:.3f}s")


def test_criterion_2_example_matrix(example_gens, example_alphabet):
    step = pipeline.reduce_step(build_core(example_gens, example_alphabet), example_gens)
    matrix = np.asarray(step.m.matrix)
    ok = matrix.shape == (12, 12) and np.array_equal(matrix, np.array(EXAMPLE_M))
    assert report("2 matrix bit-exact", ok)


def test_criterion_3_spectra(example_gens, example_alphabet):
    step = pipeline.reduce_step(build_core(example_gens, example_alphabet), example_gens)
    ok = abs(step.pf.eigenvalue - 1.45) <= 0.005
    ok = ok and abs(step.pf1.eigenvalue - 1.64) <= 0.005
    assert report("3 eigenvalues", ok,
                  f"lambda={step.pf.eigenvalue:.4f}, lambda1={step.pf1.eigenvalue:.4f}")


def test_criterion_3_eigenvector_reference_tuple(example_gens, example_alphabet):
    # The closed form derived in the module docstring, to two decimals.
    step = pipeline.reduce_step(build_core(example_gens, example_alphabet), example_gens)
    reference = (3.12, 3.12, 4.41, 4.41, 2.69, 1.0, 1.64, 1.64, 2.69, 1.0)
    v = np.asarray(step.pf1.eigenvector) / step.pf1.eigenvector[5]
    deviations = [
        (i + 1, float(x), r)
        for i, (x, r) in enumerate(zip(v, reference))
        if abs(x - r) > 0.01
    ]
    assert report("3 eigenvector tuple", not deviations, f"off at {deviations}")


def test_criterion_4_example_certificate(example_gens, example_alphabet):
    step = pipeline.reduce_step(build_core(example_gens, example_alphabet), example_gens)
    cert = certify_inequality(step.m, step.pf1, u_override=3.0)
    ok = cert.strict_rows == (1, 2, 3, 4, 11, 12)
    mu = np.asarray(step.m.matrix) @ np.asarray(cert.u)
    for row in range(4, 10):  # NSE rows 5..10
        ok = ok and abs(mu[row] - cert.lam1 * cert.u[row]) <= 1e-9
    assert report("4 certificate at u=3", ok, f"strict rows {cert.strict_rows}")


def test_criterion_5_theorem_suite(runs):
    entries, build_time = runs
    t0 = time.monotonic()
    failures = []
    rng = random.Random(987)
    for entry in entries:
        inst, core, aut, step = entry["inst"], entry["core"], entry["aut"], entry["step"]
        label = inst.label
        try:
            aut.validate()  # deterministic, ergodic, I = F
            if aut.ambiguity != core.degree(core.root) - 1:
                raise AssertionError("ambiguity != root degree - 1")
            for _ in range(500):
                w = sample_accepted_word(aut, rng, rng.randint(1, 12))
                if accepts(aut, w) != aut.ambiguity:
                    raise AssertionError(f"path count off for {w}")
            if entry["error"] is not None:
                if not inst.expect_no_cut_vertex:
                    raise AssertionError(f"unexpected {entry['error']}")
                continue
            if step is None:
                continue  # single-vertex core, nothing to collapse
            rebuilt = build_automaton(
                build_core(list(step.gens_after), inst.alphabet)
            )
            collapsed = collapse_automaton(step.aut_before, step.m.collapse)
            if not isomorphic(collapsed, rebuilt):
                raise AssertionError("collapse not isomorphic to direct build")
            direct = ose(collapsed)
            m1 = np.asarray(step.m1.matrix)
            if not np.array_equal(np.asarray(direct.matrix), m1):
                raise AssertionError("derived matrix differs from direct adjacency")
            boundary = step.m.boundary
            lead = np.asarray(step.m.matrix)[:boundary, :boundary]
            if not (lead <= m1).all():
                raise AssertionError("lead block exceeds the collapsed matrix")
            index = {q: i for i, q in enumerate(step.m.states)}
            expected_strict = set()
            back = oracles.predecessors(step.aut_before, step.m.collapse.elements)
            for state in step.m.collapse.elements:
                feeders = [index[q] for q in back[state]]
                targets = [index[t] for _, t in oracles.successors(step.aut_before, state)]
                expected_strict |= {(i, j) for i in feeders for j in targets}
            actual = {tuple(p) for p in zip(*np.nonzero(m1 - lead))}
            if actual != expected_strict:
                raise AssertionError("strict positions differ from prescription")
            if not step.pf.eigenvalue < step.pf1.eigenvalue - 1e-8:
                raise AssertionError("eigenvalue margin too small")
            for choice in (1, 2, 3):
                certify_inequality(step.m, step.pf1, u_choice=choice)
        except Exception as exc:
            failures.append(f"{label}: {exc}")
    elapsed = time.monotonic() - t0 + build_time
    ok = not failures and elapsed < 120.0
    assert report(
        "5 theorem suite",
        ok,
        f"{len(entries)} instances, {elapsed:.1f}s" + (f"; {failures[:3]}" if failures else ""),
    )


def test_criterion_6_census_oracle(runs):
    entries, _ = runs
    failures = []
    for entry in entries:
        counts = word_census(entry["aut"], 8)
        brute = oracles.brute_census(entry["core"], 8)
        if counts != brute:
            failures.append(f"{entry['inst'].label}: census {counts} != brute {brute}")
    assert report("6 census equals brute force (n<=8)", not failures,
                  f"{len(entries)} instances" + (f"; {failures[:3]}" if failures else ""))


def test_criterion_6_growth_estimate_at_20(runs):
    # Both Perron-Frobenius census bounds of the module docstring, for
    # every n = 1..20.
    entries, _ = runs
    slack = 1e-6
    failures = []
    for entry in entries:
        aut, label = entry["aut"], entry["inst"].label
        mat = ose(aut)
        pf = pf_eigen(mat)
        lam, v = pf.eigenvalue, np.asarray(pf.eigenvector)
        initial = [i for i, q in enumerate(mat.states) if q in aut.initial]
        final = [i for i, q in enumerate(mat.states) if q in aut.final]
        k, size = aut.ambiguity, len(mat.states)
        counts = word_census(aut, 20 + size - 1)
        mass = float(v[initial].sum())
        upper = mass / float(v[final].min())
        lower = len(final) * mass / float(v.max())
        for n in range(1, 21):
            power = lam**n
            if k * counts[n - 1] > power * upper * (1 + slack):
                failures.append(f"{label}: k*a_{n}={k * counts[n - 1]} > {power * upper:.6g}")
                break
            window = k * sum(counts[n - 1 : n - 1 + size])
            if window < power * lower * (1 - slack):
                failures.append(f"{label}: window at n={n} {window} < {power * lower:.6g}")
                break
    assert report(
        "6 census within the PF bounds for n<=20",
        not failures,
        f"{len(failures)} of {len(entries)} instances off" + (f"; e.g. {failures[:2]}" if failures else ""),
    )


def test_criterion_7_cross_construction(runs):
    entries, _ = runs
    failures = []
    checked = 0
    for entry in entries:
        step = entry["step"]
        if step is None:
            continue
        collapsed = collapse_core(entry["core"], step.collapse)
        rebuilt = build_core(list(step.gens_after), entry["inst"].alphabet)
        if not oracles.isomorphic_any_root(collapsed, rebuilt):
            failures.append(entry["inst"].label)
        checked += 1
    ok = not failures and checked >= 150
    assert report("7 cross-construction", ok, f"{checked} instances")


def test_criterion_8_no_cut_vertex_handling(runs, capsys, tmp_path):
    entries, _ = runs
    failures = []
    checked = 0
    for entry in entries:
        inst = entry["inst"]
        if not inst.expect_no_cut_vertex:
            continue
        checked += 1
        if not isinstance(entry["error"], NoCutVertexError):
            failures.append(f"{inst.label}: no certificate raised")
            continue
        target = tmp_path / f"{inst.label}.json"
        code = main([
            "reduce-step",
            "--gens", ",".join(format_word(w, inst.alphabet) for w in inst.gens),
            "--alphabet", "".join(inst.alphabet.names),
            "--format", "json",
            "--out", str(target),
        ])
        captured = capsys.readouterr()
        if code != 4:
            failures.append(f"{inst.label}: exit {code}")
        if target.exists() or captured.out:
            failures.append(f"{inst.label}: artifacts were emitted")
        if "not a free factor" not in captured.err:
            failures.append(f"{inst.label}: missing certificate message")
    ok = not failures and checked >= 4
    assert report("8 no-cut-vertex handling", ok, f"{checked} instances")
