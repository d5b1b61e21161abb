"""Block spectroscopy of the slice Dirac operators in the rank-one example.

The section space over the compact torus splits into character blocks
C_{-a,-b} (x) C_{a,b} (x) S (x) E_{-a-b}.  On each block the compact
slice Dirac operator acts by an exact scalar, the cubic term cancels it
exactly on the a-b = -2 line, and what remains of the embedded operator
is the noncompact slice operator.  Its kernel lines are identified by
scanning truncated weight modules for the unique module whose algebraic
Dirac kernel meets the torus weight each block prescribes.

Spin basis lines are always named by their computed torus weight (the
gamma action of the grading element of the compact subalgebra): the +1
line is called "u" on the slice spinors and "e" on the spinors of the
fixed subalgebra, the -1 line is called "1" in both.  No label is ever
attached by position in a chosen polarization basis.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .scalars import ExactMatrix, ExactScalar, coerce, ZERO, ONE, I, INV_SQRT2
from .lie import (WeightModule, sl2, sl2_irrep,
                  lowest_weight_module, highest_weight_module,
                  vec, vec_add, vec_scale, vec_combination, unit_vector)
from .clifford import CliffordElement, ReductivePair, inject_element
from .spin import SpinModule
from .triple import solve_in_span
from .dirac import beta_action, algebraic_dirac, residual_term


class SpectralError(ValueError):
    """A spectral bookkeeping invariant failed."""


# -- character blocks ---------------------------------------------------------


class CharacterLabel(NamedTuple):
    """A character of the product torus, with integer parameters (a, b)."""

    a: int
    b: int

    @property
    def z_scalar(self) -> ExactScalar:
        """Scalar action of the slice rotation generator: i(a-b)/2."""
        return I * coerce(Fraction(self.a - self.b, 2))


class PeterWeylBlock(NamedTuple):
    """One character block of the decomposed section space.

    The right label carries (a, b); the left label is its negative.  The
    twist weight forced by invariance is -a-b, and spin_ls names the
    slice spin line ("1" or "u") the block carries.
    """

    left: CharacterLabel
    right: CharacterLabel
    spin_ls: str
    e_weight: int


def make_block(a: int, b: int, module: WeightModule = None,
               spin_ls: str = "1") -> PeterWeylBlock:
    """Build the block with right label (a, b), validating admissibility.

    With a module given, the forced twist weight -a-b must occur among
    its weights; without one, the block is purely combinatorial (as in
    eigenvalue sweeps).
    """
    if spin_ls not in ("1", "u"):
        raise SpectralError(f"unknown slice spin line {spin_ls!r}")
    e_weight = -a - b
    if module is not None and e_weight not in module.weights:
        raise SpectralError(
            f"block ({a},{b}) needs twist weight {e_weight}, which the "
            f"module does not contain")
    return PeterWeylBlock(CharacterLabel(-a, -b), CharacterLabel(a, b),
                          spin_ls, e_weight)


# -- scalar actions -----------------------------------------------------------


def _scalar_of(matrix: ExactMatrix) -> ExactScalar:
    s = matrix[0, 0]
    if not matrix.is_scalar(s):
        raise SpectralError("expected a scalar matrix")
    return s


def compact_generator_scalar(triple) -> ExactScalar:
    """Scalar gamma action of the compact slice direction on its spin line."""
    if len(triple.zq_basis) != 1:
        raise SpectralError("a single compact slice direction is required")
    return _scalar_of(triple.spin_qlp.gamma_generator(0))


def block_eigenvalue(triple, blk: PeterWeylBlock) -> ExactScalar:
    """Eigenvalue of the compact slice Dirac operator on a block.

    Composed from the two scalar actions of the compact slice direction:
    the character value on the right label and the gamma action on the
    one-dimensional spin factor, weighted by the direction's norm sign.
    """
    sign = coerce(triple.space_qlp.signs[0])
    return sign * blk.right.z_scalar * compact_generator_scalar(triple)


def cubic_scalar(triple) -> ExactScalar:
    """Scalar action on the slice spinors of minus twice the cubic element."""
    elt = triple.pair_l_lh.cubic_element().scaled(coerce(-2))
    return _scalar_of(triple.spin_ql.gamma(elt))


def even_weight_cancellation(triple, module: WeightModule) -> dict:
    """Exact cancellation on the a-b = -2 eigenvalue line.

    Every admissible block on that line has compact-slice eigenvalue
    cancelled by the cubic scalar; such blocks exist precisely when the
    twist module has even weights.  Returns the block family found.
    """
    cub = cubic_scalar(triple)
    blocks = []
    for w in sorted(set(module.weights)):
        if w % 2 != 0:
            continue                      # a, b would not be integers
        a = (-w - 2) // 2                 # solve a+b = -w, a-b = -2
        b = a + 2
        blk = make_block(a, b, module)
        if not (block_eigenvalue(triple, blk) + cub).is_zero():
            raise SpectralError(
                f"cancellation fails on the block ({a},{b})")
        blocks.append(blk)
    has_even = any(w % 2 == 0 for w in module.weights)
    if bool(blocks) != has_even:
        raise SpectralError("block family does not match the weight parity")
    return {"blocks": blocks, "nonempty": bool(blocks),
            "even_weights": has_even}


# -- spin line naming ---------------------------------------------------------


def grading_element(triple):
    """The vector of h cap k whose twist-module image is the Cartan generator.

    Torus weights of spin lines are measured against this element, so the
    naming is independent of any basis normalization inside the triple.
    """
    size = len(triple.h_module_map[0])
    target = unit_vector(size, 0)
    coords = solve_in_span([vec(img) for img in triple.h_module_map], target)
    if coords is None:
        raise SpectralError("the twist map does not reach the Cartan line")
    x = vec_combination(coords, triple.h_basis, triple.algebra.dim)
    if solve_in_span(triple.h_k_basis, x) is None:
        raise SpectralError("the grading element is not in h cap k")
    return x


def _slot_names(spin: SpinModule, alpha_elt: CliffordElement,
                plus_name: str) -> dict:
    """Name each spin basis line by its gamma weight under a grading element.

    The action must be diagonal with eigenvalues exactly +1 and -1; the
    +1 line gets plus_name and the -1 line gets "1".
    """
    m = spin.gamma(alpha_elt)
    names = {}
    for i in range(spin.dim):
        for j in range(spin.dim):
            if i != j and not m[i, j].is_zero():
                raise SpectralError("grading action is not diagonal")
        if m[i, i] == ONE:
            names[i] = plus_name
        elif m[i, i] == -ONE:
            names[i] = "1"
        else:
            raise SpectralError(f"unexpected spin line weight {m[i, i]}")
    if sorted(names.values()) != sorted(["1", plus_name]):
        raise SpectralError("spin lines do not split into weights +1 and -1")
    return names


def hs_slot_names(triple) -> dict:
    """Names ("e"/"1") of the fixed-side spin lines, by computed weight."""
    x = grading_element(triple)
    return _slot_names(triple.spin_hs, triple.pair_h_hk.alpha(x), "e")


def ql_slot_names(triple) -> dict:
    """Names ("u"/"1") of the slice spin lines, by computed weight."""
    x = grading_element(triple)
    alpha = inject_element(triple.pair_l_lk.alpha(x), triple.space_ql)
    return _slot_names(triple.spin_ql, alpha, "u")


# -- the fixed-side Dirac operator and its kernel -----------------------------


def hs_dirac_operator(triple, module: WeightModule,
                      vectors=None, duals=None) -> ExactMatrix:
    """The residual Dirac operator on E (x) S for the pair (h, h cap k).

    By default the triple's orthonormal complement basis is used.  Any
    other presentation may be given as a basis of ambient vectors with a
    biorthogonal list of duals (omitted for an orthonormal basis); the
    resulting matrix is presentation independent.
    """
    pair = triple.pair_h_hk
    spin = triple.spin_hs
    if vectors is None:
        return algebraic_dirac(pair, lambda b: beta_action(triple, module, b),
                               spin)
    vectors = [vec(v) for v in vectors]
    duals = vectors if duals is None else [vec(d) for d in duals]
    if len(vectors) != len(pair.complement_basis) or len(duals) != len(vectors):
        raise SpectralError("presentation does not have full size")
    for i, vi in enumerate(vectors):
        for j, dj in enumerate(duals):
            want = ONE if i == j else ZERO
            if triple.algebra.form_value(vi, dj) != want:
                raise SpectralError("presentation is not biorthonormal")
    size = module.dim * spin.dim
    out = ExactMatrix.zeros(size, size)
    for b, d in zip(vectors, duals):
        out = out + beta_action(triple, module, b).kron(
            spin.gamma(pair.vector_element(d)))
    return out


def finite_dirac_kernel(triple, module: WeightModule) -> list:
    """Weight/line classification of the exact kernel on E (x) S.

    Returns sorted pairs (twist weight, spin line name); every kernel
    line must be pure in both factors.
    """
    op = hs_dirac_operator(triple, module)
    spin_dim = triple.spin_hs.dim
    names = hs_slot_names(triple)
    lines = []
    for v in op.nullspace():
        support = [k for k in range(v.nrows) if not v[k, 0].is_zero()]
        weight_idx = {k // spin_dim for k in support}
        spin_idx = {k % spin_dim for k in support}
        weights = {module.weights[i] for i in weight_idx}
        if len(weights) != 1 or len(spin_idx) != 1:
            raise SpectralError("kernel line is not weight and line pure")
        lines.append((weights.pop(), names[spin_idx.pop()]))
    return sorted(lines)


# -- matched blocks -----------------------------------------------------------


def matched_kernel_blocks(triple, m: int):
    """The two blocks where the embedded operator reduces to the
    noncompact slice operator, for a twist module of highest weight 2m.

    Checks, exactly: both blocks sit on the cancelled a-b = -2 line; the
    fixed-side kernel pairs twist weight 2m with the +1 spin line and
    -2m with the -1 line (the "e" of the fixed side renames to the "u"
    of the slice side, both being the +1 line); and the residual term
    annihilates the corresponding lines of the slice fiber.
    """
    if m < 0:
        raise SpectralError("the twist parameter must be nonnegative")
    module = scan_module("finite", 2 * m, 0)
    blocks = (make_block(-m - 1, -m + 1, module, spin_ls="u"),
              make_block(m - 1, m + 1, module, spin_ls="1"))
    cub = cubic_scalar(triple)
    kernel = set(finite_dirac_kernel(triple, module))
    ql_names = ql_slot_names(triple)
    res = residual_term(triple, module).terms.get(None)
    for blk in blocks:
        if blk.right.a - blk.right.b != -2:
            raise SpectralError("matched block is off the cancelled line")
        if not (block_eigenvalue(triple, blk) + cub).is_zero():
            raise SpectralError("compact part does not cancel on a block")
        slot_hs = "e" if blk.spin_ls == "u" else "1"
        if (blk.e_weight, slot_hs) not in kernel:
            raise SpectralError(
                f"fixed-side kernel misses ({blk.e_weight}, {slot_hs})")
        if res is not None:
            _check_residual_kills(triple, module, res, ql_names, blk)
    return blocks


def _check_residual_kills(triple, module, res, ql_names, blk):
    """The residual matrix must be zero on the block's spin (x) weight lines."""
    spin_indices = [i for i, n in ql_names.items() if n == blk.spin_ls]
    weight_indices = [i for i, w in enumerate(module.weights)
                      if w == blk.e_weight]
    for s_idx in spin_indices:
        for e_idx in weight_indices:
            col = res.col(s_idx * module.dim + e_idx)
            if any(not x.is_zero() for x in col):
                raise SpectralError(
                    "residual term does not annihilate a matched line")


# -- the rank-one side and truncated kernels ----------------------------------


class KernelLine(NamedTuple):
    """One kernel line: its torus weight, spin line name, and module level."""

    total: int
    slot: str
    level: int


@cache
def single_side():
    """The rank-one pair: sl2 against its Cartan line, with spin data.

    Returns (algebra, pair, spin, names, weights) where names/weights
    label the two spin lines by their computed grading weight.
    """
    g = sl2()
    h_v = g.basis_vector("h")
    e_v = g.basis_vector("e")
    f_v = g.basis_vector("f")
    # orthonormal complement: (e+f)/sqrt2 and i(e-f)/sqrt2
    x1 = vec_scale(INV_SQRT2, vec_add(e_v, f_v))
    x2 = vec_scale(I * INV_SQRT2, vec_add(e_v, vec_scale(-ONE, f_v)))
    pair = ReductivePair(g, [h_v], [x1, x2], ("P1", "P2"))
    spin = SpinModule(pair.space)
    names = _slot_names(spin, pair.alpha(h_v), "e")
    weights = {i: (1 if n == "e" else -1) for i, n in names.items()}
    return g, pair, spin, names, weights


def scan_module(kind: str, param: int, n_levels: int) -> WeightModule:
    """The member of the scan family over the rank-one algebra, built anew.

    kind "finite" ignores n_levels, which its callers pass as 0;
    "lowest"/"highest" build truncated modules with the given parameter.
    """
    if kind == "finite":
        return sl2_irrep(param)
    if kind == "lowest":
        return lowest_weight_module(param, n_levels)
    if kind == "highest":
        return highest_weight_module(param, n_levels)
    raise SpectralError(f"unknown module kind {kind!r}")


def truncated_dirac_kernel(module: WeightModule) -> list:
    """Exact kernel lines of the rank-one Dirac operator on M (x) S.

    The domain is restricted to the module's certified levels while all
    image rows are kept, so for the truncated kinds every reported line
    is a genuine kernel line of the untruncated module.

    The operator, sum_k pi(x_k) (x) C_k from its rational spin-side
    symbol, keeps the torus weight, so each weight's columns and the rows
    they reach (at most two) form a block solved on its own.
    """
    g, pair, spin, names, slot_w = single_side()
    if module.algebra != g:
        raise SpectralError("module does not live over the rank-one algebra")
    symbol = algebraic_dirac(pair, lambda b: ExactMatrix([b]), spin)
    window = range(module.certified)
    op = ExactMatrix.zeros(module.dim * spin.dim, module.certified * spin.dim)
    for k, action in enumerate(module.actions):
        c_k = symbol.select_columns(range(k * spin.dim, (k + 1) * spin.dim))
        if not c_k.is_zero():
            op = op + action.select_columns(window).kron(c_k)
    by_total = defaultdict(list)
    for j in window:
        for s in range(spin.dim):
            by_total[module.weights[j] + slot_w[s]].append((j, s))
    totals = sorted(by_total)
    blocks = op.column_blocks([j * spin.dim + s for j, s in by_total[t]]
                              for t in totals)
    lines = []
    for total, block in zip(totals, blocks):
        group = by_total[total]
        for nv in block.nullspace():
            support = [k for k in range(nv.nrows) if not nv[k, 0].is_zero()]
            if len(support) != 1:
                raise SpectralError("kernel line mixes module levels")
            level, s_idx = group[support[0]]
            lines.append(KernelLine(total, names[s_idx], level))
    return sorted(lines)


# -- parameter scans and the kernel table -------------------------------------


def scan_depth(m: int) -> int:
    """How far the scans for twist parameter m reach: the table's hits sit
    at nu = -m-2 and mu = m."""
    return max(12, m + 2)


def scan_family(kind: str, depth: int, n_levels: int) -> dict:
    """Kernel lines of each member of a scan family, by parameter.

    "highest" covers nu = -1 .. -depth.  "lowest" covers mu = 0 .. depth:
    the mu = 0 member is the one-dimensional module (the honest
    irreducible quotient), and mu >= 1 are the irreducible truncated
    lowest weight modules.  Each member is built, solved once and dropped.
    """
    if kind == "highest":
        keys = {nu: ("highest", nu, n_levels)
                for nu in range(-1, -depth - 1, -1)}
    elif kind == "lowest":
        keys = {mu: ("lowest", mu, n_levels) if mu else ("finite", 0, 0)
                for mu in range(depth + 1)}
    else:
        raise SpectralError(f"unknown scan family {kind!r}")
    return {p: truncated_dirac_kernel(scan_module(*key))
            for p, key in keys.items()}


def scan_hits(family: dict, total: int, slot: str) -> list:
    """The parameters of the family members whose kernel meets the line."""
    return [p for p, lines in family.items()
            if any(l.total == total and l.slot == slot for l in lines)]


def _dual_row(kind: str, param: int) -> list:
    """Name the dual of a scan hit.

    A highest weight module with parameter nu pairs with the lowest
    weight representation of weight -nu; the lowest weight family pairs
    with highest weight -mu, falling to the limit case at mu = 1 and the
    one-dimensional module at mu = 0.
    """
    if kind == "highest":
        n = -param
        if n < 2:
            raise SpectralError("scan hit outside the discrete range")
        return ["DS+", n]
    if param == 0:
        return ["Trivial", None]
    if param == 1:
        return ["LDS-", None]
    return ["DS-", -param]


def table_rows(blocks, families: dict) -> list:
    """Rows [kind, parameter, "C", character] of the kernel identification.

    Each matched block prescribes a torus weight (its first right-label
    coordinate) and a spin line: "u" is read as "e" in families["highest"],
    "1" in families["lowest"].  The unique family member whose kernel meets
    that line names the first factor; the second coordinate names the
    character."""
    rows = []
    for blk in blocks:
        kind, slot = (("highest", "e") if blk.spin_ls == "u"
                      else ("lowest", "1"))
        target = blk.right.a
        hits = scan_hits(families[kind], target, slot)
        if len(hits) != 1:
            raise SpectralError(
                f"scan for total {target} found {len(hits)} members")
        rows.append(_dual_row(kind, hits[0]) + ["C", -blk.right.b])
    return rows


def kernel_table(triple, m: int, n_levels: int = 40) -> list:
    """The kernel identification table for a twist module of highest
    weight 2m: table_rows of the matched blocks against both scan families,
    scanned to scan_depth(m) with n_levels levels per member."""
    blocks = matched_kernel_blocks(triple, m)
    depth = scan_depth(m)
    return table_rows(blocks, {kind: scan_family(kind, depth, n_levels)
                               for kind in ("highest", "lowest")})
