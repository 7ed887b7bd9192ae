"""Mesh tessellation and deterministic artifact serialization.

Builds display meshes of the extended surface over truncated subdomains,
two faces per grid quad however small they get toward the end at infinity,
tags every vertex with its causal type, and writes OBJ / PLY / CSV
artifacts that are byte-identical across runs for identical inputs.  Each
full-size mesh array is built once: the pool evaluates into the display
planes that positions views, and the writers go a block of rows at a time,
PLY through one reused record buffer.  The text writers format each block
in numpy, floats as their repr and ints as their str, on a thread pool when
a table has two blocks or more; only subnormal floats, and floats whose
rounding is too close to call in float64, go through repr itself.  Outputs
are written over in place and cut to length, not opened with O_TRUNC, which
makes ext4 flush them on close.

Display coordinates are ordered (x, y, t) so the rotational axis points up
in common viewers; the evaluator's native order is (t, x, y).
"""

from __future__ import annotations

import math
import os
import stat
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .extension import eval_extended_grid, omega_lower_bound

CAUSAL_NAMES = ("spacelike", "lightlike", "timelike")

# rows per formatted block in the text writers: large enough to amortize
# the numpy calls, small enough to keep the block out of the peak memory
_WRITE_BLOCK = 1 << 14

# native (t, x, y) -> display (x, y, t)
_DISPLAY_ORDER = (1, 2, 0)

# tessellate's peak traced allocation per grid vertex, with headroom: 15.0 MB
# (76 B) for the 196,608 vertices of a 256x768 grid (tracemalloc, n = 3;
# 84 B at n = 17, 1 to 8 threads; 76 B at 512x1536); the row chunks keep the
# pool's temporaries near a quarter of the grid at any thread count
_PEAK_BYTES_PER_VERTEX = 150


def thread_cap() -> int:
    """Worker limit for tessellation and the text writers: the CPUs this process may use.

    Where the platform reports CPU affinity, ``taskset`` or a cpuset caps it.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Triangulated truncation of one surface with per-vertex attributes.

    positions are display-ordered (x, y, t); domain rows are (u, theta);
    causal holds uint8 codes indexing CAUSAL_NAMES; faces are triangles of
    0-based vertex indices.
    """

    n: int
    positions: np.ndarray
    domain: np.ndarray
    causal: np.ndarray
    faces: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return int(self.positions.shape[0])

    @property
    def face_count(self) -> int:
        return int(self.faces.shape[0])


def _norm(v):
    # the length of v over its leading axis, rounded as np.linalg.norm rounds
    return np.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2])


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report them."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _row_chunks(rows: int) -> list[slice]:
    """Slices of consecutive rows, about four for each worker of thread_cap()."""
    step = -(-rows // (4 * min(thread_cap(), rows)))
    return [slice(a, a + step) for a in range(0, rows, step)]


def _split_quads(positions: np.ndarray, nu: int, ntheta: int, map=map) -> np.ndarray:
    """Split each quad along its shorter display diagonal: 2 (nu - 1) ntheta faces.

    Quad (i, j) has corners a = (i, j), b = (i, j + 1), c = (i + 1, j + 1) and
    d = (i + 1, j), column 0 repeated past the theta seam.  Its faces are
    (a, b, c), (a, c, d) if |c - a| <= |d - b|, else (b, c, d), (b, d, a), all
    first faces first.  map runs the row chunks of _row_chunks(nu - 1), each
    writing only its own rows.
    """
    grid = positions.reshape(nu, ntheta, 3).transpose(2, 0, 1)
    seam = np.r_[:ntheta, 0].astype(np.int32)
    faces = np.empty((2, nu - 1, ntheta, 3), dtype=np.int32)

    def split(rows):  # quad rows r0..r1 - 1, from vertex rows r0..r1
        r0, r1 = rows.indices(nu - 1)[:2]
        planes = np.take(grid[:, r0:r1 + 1], seam, axis=2)
        index = np.arange(r0, r1 + 1, dtype=np.int32)[:, None] * ntheta + seam
        (ia, a), (ib, b), (ic, c), (id_, d) = ((index[i:r1 - r0 + i, j:ntheta + j],
                                                planes[:, i:r1 - r0 + i, j:ntheta + j])
                                               for i, j in ((0, 0), (0, 1), (1, 1), (1, 0)))
        ac = _norm(c - a) <= _norm(d - b)  # split along a-c
        ab, bc, cd, da = (np.where(ac, x, y) for x, y in ((ia, ib), (ib, ic), (ic, id_), (id_, ia)))
        for k, slots in enumerate(((ab, bc, cd), (ab, cd, da))):
            for slot, corner in enumerate(slots):
                faces[k, r0:r1, :, slot] = corner

    list(map(split, _row_chunks(nu - 1)))
    return faces.reshape(-1, 3)


def tessellate(
    n: int,
    u_max: float = 4.0,
    eps: float = 0.02,
    grid: tuple[int, int] = (64, 192),
) -> SurfaceMesh:
    """Sample the surface over {max_j cos(theta - 2 pi j/n) + eps <= u <= u_max}.

    Each theta column gets its own linearly spaced u-line starting at the
    offset lower envelope, so the mesh hugs the domain boundary uniformly.
    One thread pool takes the chunks of u-rows twice: it evaluates them against
    one theta row, so terms in theta alone cost once per column and chunk, and
    it splits their quads toward the shorter display-space diagonal.  Vertices
    are tagged by the sign of u - 1: space-like for u > 1, time-like for u < 1
    and lightlike on the fold u = 1.  A grid whose arrays would need more
    than the physical memory is rejected before any is allocated.
    """
    nu, ntheta = grid
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"boundary offset must be positive and finite, got {eps}")
    if not (math.isfinite(u_max) and u_max > 1.0 + eps):
        raise ValueError(f"u_max must be finite and exceed 1 + eps, got {u_max}")
    if nu < 8 or ntheta < 8:
        raise ValueError(f"grid must be at least 8x8, got {nu}x{ntheta}")
    # numpy commits pages as they are written, so an oversized grid would
    # not raise MemoryError: the kernel would kill the process part way
    need, have = nu * ntheta * _PEAK_BYTES_PER_VERTEX, _physical_memory()
    if have is not None and need > have:
        raise ValueError(f"a {nu}x{ntheta} grid does not fit in memory: it needs about "
                         f"{need / 2**30:.3g} GiB, of {have / 2**30:.3g} GiB physical")

    thetas = 2.0 * math.pi * np.arange(ntheta) / ntheta
    lo = omega_lower_bound(n, thetas) + eps
    frac = np.linspace(0.0, 1.0, nu)[:, None]
    uu = lo[None, :] + (u_max - lo[None, :]) * frac

    # the CausalType codes: SPACELIKE 0 above the fold, LIGHTLIKE 1 on it, TIMELIKE 2 below
    causal = (uu <= 1.0).view(np.uint8) + (uu < 1.0).view(np.uint8)
    planes = np.empty((3, nu, ntheta))  # display (x, y, t) planes

    def fill(rows):
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            native = eval_extended_grid(n, uu[rows], thetas[None, :])
        for plane, axis in zip(planes, _DISPLAY_ORDER):
            plane[rows] = native[..., axis]

    with ThreadPoolExecutor(max_workers=min(thread_cap(), nu)) as pool:
        list(pool.map(fill, _row_chunks(nu)))
        if not np.isfinite(planes).all():
            raise ValueError(f"n={n}, u_max={u_max!r}: the surface overflows float64 on this grid")
        positions = planes.reshape(3, -1).T  # contiguous columns
        faces = _split_quads(positions, nu, ntheta, pool.map)
    domain = np.stack([uu, np.broadcast_to(thetas, uu.shape)], axis=2).reshape(-1, 2)
    return SurfaceMesh(
        n=n,
        positions=positions,
        domain=domain,
        causal=causal.ravel(),
        faces=faces,
        metadata={"n": n, "u_max": float(u_max), "eps": float(eps),
                  "nu": nu, "ntheta": ntheta},
    )


# ---------------------------------------------------------------------------
# text rows
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# a 16- or 15-digit residual this close to a rounding tie or to half an ulp,
# in units of the 17th digit, sends the value to repr; their errors are < 1e-14
_TIE = 1e-11
_FLOAT_WIDTH = 24  # the longest float repr, e.g. -2.2250738585072014e-308
_EXP_MIN = -324  # the decimal exponents of the finite doubles run -324..308
_PLACES = np.arange(23, dtype=np.int8)[:, None]


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _scale_table():
    """Rows e - _EXP_MIN for e = _EXP_MIN..308: the nearest double to 10^e,
    and 10^(16 - e) = 2^shift * (hi + lo) with hi in [1, 2), hi + lo a
    double-double (|lo| <= 2^-53, off by at most 2^-106), hi Dekker-split."""
    near, shifts, parts = [], [], []
    for e in range(_EXP_MIN, 309):
        near.append(float(f"1e{e}"))
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        shift = num.bit_length() - den.bit_length()
        num, den = (num, den << shift) if shift >= 0 else (num << -shift, den)
        if num < den:
            num, shift = 2 * num, shift - 1
        hi = num / den  # int division rounds correctly
        p, q = hi.as_integer_ratio()
        shifts.append(shift)
        parts.append((hi, *_split(hi), (num * q - p * den) / (den * q)))
    return np.array(near), np.array(shifts, dtype=np.int32), np.array(parts).T


_NEAR10, _SHIFT, _SCALE = _scale_table()


def _shortest_digits(a: np.ndarray):
    """repr's digits of finite floats a >= 0: (digits, exp, slow).

    With exp = floor(log10 a), the p-digit rounding of a * 10^(p-1-exp)
    reads back as a when it lies within half an ulp of a, scaled alike;
    p = 17 always does.  repr takes the least such p, and for p <= 15 that
    is the 15-digit rounding with its zeros stripped (Gay 1990).  digits is
    it, padded to 17 digits.  The nearest double to 10^e counts as exponent
    e even when it lies below 10^e, and its digits are then 10^16.  A zero
    gives digits 0 and exp -1.  Where slow is set, a is subnormal or an
    inexact residual is within _TIE of a decision, and both are void.
    """
    mantissa, binexp = np.frexp(a)
    # floor(log10 2^(binexp - 1)) for |binexp| <= 1076, then one step up
    row = ((binexp - 1) * 78913 >> 18) - _EXP_MIN
    row += a >= _NEAR10[row + 1]
    shift = _SHIFT[row]
    mh, sh, sl, ml = _SCALE.take(row, axis=1)
    # a * 10^(16 - exp) = b * (mh + ml), with b = a * 2^shift in [5e15, 1e17)
    # exact; b * mh = hi + (the Dekker residual) exactly (Dekker 1971), and
    # hi >= 1e16 > 2^53 is an integer.  Past 10^22, ml carries the power
    # of ten, and lo is off by less than 1e-14
    b = np.ldexp(a, shift)
    hi = b * mh
    bh, bl = _split(b)
    lo = ((bh * sh - hi) + bh * sl + bl * sh) + bl * sl + b * ml
    step = np.rint(lo)
    r17 = lo - step
    d17 = hi.astype(np.int64) + step.astype(np.int64)  # hi is even
    # the 16- and 15-digit roundings of hi + lo, residuals in 17th-digit units
    q16 = d17 // 10
    q15 = q16 // 10
    u16 = (d17 - 10 * q16) + r17
    u15 = (d17 - 100 * q15) + r17
    # half an ulp of a in 17th-digit units, in (0.55, 11.1): so a 15-digit
    # tie never reads back, and r17 is within _TIE of exact, its ties broken
    # to even as in repr.  Below a power of two the gap is half as wide, so
    # a 16-digit rounding down that misses it gives way to the one up
    half_up = np.ldexp(mh, binexp + shift - 54)
    half_down = np.where(mantissa == 0.5, 0.5 * half_up, half_up)
    # where ml = 0 and r17 = 0, a * 10^(16 - exp) is an integer and the
    # residuals and half ulps are exact, so their ties are decided as in repr:
    # a 16- or 15-digit candidate half an ulp away reads back iff the
    # significand of a is even (binary round half to even), and an exact
    # 16-digit tie goes to an even last digit
    exact = (ml == 0.0) & (r17 == 0.0)
    even = exact & (a.view(np.int64) & 1 == 0)
    up16, up15 = (u16 > 5.0) | (u16 > half_down) | ((u16 == half_down) & ~even), u15 > 50.0
    up16 |= exact & (u16 == 5.0) & (q16 & 1 == 1)
    v16, v15 = np.abs(u16 - 10.0 * up16), np.abs(u15 - 100.0 * up15)
    h16, h15 = np.where(up16, half_up, half_down), np.where(up15, half_up, half_down)
    near = ((np.abs(v16 - 5.0) < _TIE) | (np.abs(u16 - half_down) < _TIE)
            | (np.abs(v16 - h16) < _TIE) | (np.abs(v15 - h15) < _TIE))
    slow = (binexp < -1021) | (near & ~exact)
    digits = np.where((v16 < h16) | ((v16 == h16) & even), (q16 + up16) * 10, d17)
    digits = np.where((v15 < h15) | ((v15 == h15) & even), (q15 + up15) * 100, digits)
    return digits, row + _EXP_MIN, slow


def _digit_rows(q: np.ndarray, rows: np.ndarray) -> None:
    """Write the len(rows) lowest decimal digits of ints q >= 0 into the
    uint8 rows as ASCII, high first."""
    width = len(rows)
    for row in range(width - 1, -1, -1):
        if (width - 1 - row) % 9 == 0:  # int32 parts of 9 digits divide faster
            high = q // 10**9
            part, q = (q - high * 10**9).astype(np.int32), high
        quotient = part // 10
        np.subtract(part, 10 * quotient, out=rows[row], casting="unsafe")
        part = quotient
    rows += ord("0")


def _float_field(x: np.ndarray) -> np.ndarray:
    """repr(float(v)) for finite v in x, as the rows of a NUL-padded uint8 matrix.

    repr is positional for zeros and for 1e-4 <= |v| < 1e16, and d[.ddd]e±XX
    with two or three exponent digits elsewhere.
    """
    digits, exp, slow = _shortest_digits(np.abs(x))
    # rows: NUL, the four zeros a leading "0." may need, 17 digits, NUL
    ext = np.zeros((23, len(x)), dtype=np.uint8)
    ext[1:5] = ord("0")
    _digit_rows(digits, ext[5:22])
    nonzero = ext[5:22] != ord("0")
    nonzero[0] = True  # the leading digit stays, also a zero's
    kept = (nonzero * _PLACES[1:18]).max(axis=0)  # the place of the last nonzero digit
    sci = (exp < -4) | (exp > 15)
    # body[j] is ext[j + 1] before the point and ext[j] after it
    point = (np.where(sci, 0, exp) + 5).astype(np.int8)
    place = _PLACES[:22]
    body = ext[:-1].copy()
    np.copyto(body, ext[1:], where=place < point)
    np.copyto(body, ord("."), where=place == point)
    body *= (place >= np.minimum(point - 1, 4)) & (place <= np.maximum(point + 1, kept + 4))
    field = np.zeros((_FLOAT_WIDTH, len(x)), dtype=np.uint8)
    field[0] = np.where(np.signbit(x), ord("-"), 0)
    field[1:23] = body
    (rows,) = np.nonzero(sci)
    if rows.size:  # the kept digits, a point after the first if there are more
        kept, exp = kept[rows], exp[rows]
        text = np.zeros((23, rows.size), dtype=np.uint8)
        text[0] = ext[5, rows]
        text[1] = np.where(kept > 1, ord("."), 0)
        text[2:18] = ext[6:22, rows] * (place[1:17] < kept)
        text[18] = ord("e")
        text[19] = np.where(exp < 0, ord("-"), ord("+"))
        _digit_rows(np.abs(exp), text[20:])
        text[20] *= np.abs(exp) >= 100
        field[1:, rows] = text
    (rows,) = np.nonzero(slow)
    if rows.size:
        text = np.array([repr(v) for v in x[rows].tolist()], dtype=f"S{_FLOAT_WIDTH}")
        field[:, rows] = text.view(np.uint8).reshape(-1, _FLOAT_WIDTH).T
    return field.T


def _int_field(v: np.ndarray) -> np.ndarray:
    """str(int(i)) for i in v, as the rows of a NUL-padded uint8 matrix."""
    mag = np.abs(v.astype(np.int64))
    width = len(str(mag.max()))
    negative = v < 0
    sign = int(negative.any())  # a sign row only where some i is negative
    field = np.empty((sign + width, len(v)), dtype=np.uint8)
    if sign:
        field[0] = np.where(negative, ord("-"), 0)
    _digit_rows(mag, field[sign:])
    field[sign:-1][mag < 10 ** np.arange(width - 1, 0, -1)[:, None]] = 0
    return field.T


_FIELDS = {"f": _float_field, "i": _int_field,
           "S": lambda v: v.view(np.uint8).reshape(len(v), -1)}


def _write_rows(fh, template: str, *columns: np.ndarray) -> None:
    """Write one template row per row of the columns, to a binary file.

    Each "{}" takes the next column: floats print as their repr, ints as
    their str, bytes as they are.  A block of _WRITE_BLOCK rows is one
    NUL-padded byte matrix, and one boolean mask drops the padding; a block
    with no NUL byte, as of ints that all have one width, is written as it
    is.  A table of two or more full blocks is formatted on a pool of
    thread_cap() threads, at most one block per thread and one more ahead
    of the writes, which stay in order; smaller tables, and one-CPU
    processes, format inline.
    """
    literals = [np.frombuffer(part.encode("ascii"), np.uint8) for part in template.split("{}")]

    def format_block(start):
        blocks = [column[start:start + _WRITE_BLOCK] for column in columns]
        shape = (len(blocks[0]), len(literals[0]))
        row = [np.broadcast_to(literals[0], shape)]
        for block, literal in zip(blocks, literals[1:]):
            row += [_FIELDS[block.dtype.kind](block),
                    np.broadcast_to(literal, (shape[0], len(literal)))]
        matrix = np.concatenate(row, axis=1)
        return matrix.ravel() if matrix.all() else matrix[matrix != 0]

    starts = range(0, len(columns[0]), _WRITE_BLOCK)
    workers = thread_cap()
    if workers == 1 or len(columns[0]) < 2 * _WRITE_BLOCK:
        for start in starts:
            fh.write(format_block(start))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for start in starts:
            ahead.append(pool.submit(format_block, start))
            if len(ahead) > workers:
                fh.write(ahead.popleft().result())
        while ahead:
            fh.write(ahead.popleft().result())


@contextmanager
def _rewrite(path: str):
    """The file at path, written over in place; a regular file is cut where the writes end."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

def _check_mesh(mesh: SurfaceMesh) -> None:
    """ValueError unless positions are finite, causal has one valid code per
    vertex and faces is (k, 3) integer with every index a vertex."""
    if not np.isfinite(mesh.positions).all():
        raise ValueError("mesh positions must be finite")
    faces = np.asarray(mesh.faces)
    if faces.ndim != 2 or faces.shape[1] != 3 or faces.dtype.kind not in "iu":
        raise ValueError(f"faces must be (k, 3) integer, got {faces.dtype} {faces.shape}")
    if faces.size and (faces.min() < 0 or faces.max() >= mesh.vertex_count):
        bad = np.flatnonzero(((faces < 0) | (faces >= mesh.vertex_count)).any(axis=1))[0]
        raise ValueError(f"face {bad} has vertex indices {faces[bad].tolist()}, "
                         f"not all in [0, {mesh.vertex_count})")
    causal = np.asarray(mesh.causal)
    if causal.shape != (mesh.vertex_count,):
        raise ValueError(f"causal has shape {causal.shape}, need ({mesh.vertex_count},)")
    bad = np.flatnonzero((causal < 0) | (causal >= len(CAUSAL_NAMES)))
    if bad.size:
        raise ValueError(f"vertex {bad[0]} has causal code {causal[bad[0]]}, not in CAUSAL_NAMES")


def export_obj(mesh: SurfaceMesh, path: str) -> None:
    """ASCII OBJ plus a `<path>.causal.csv` sidecar for the vertex tags.

    OBJ has no standard per-vertex scalar channel, so the causal attribute
    rides in a CSV of (vertex_index, causal) with 1-based indices matching
    the `f` records; an OBJ sent to os.devnull sends its sidecar there too.
    A bad mesh raises ValueError before any file opens.
    """
    _check_mesh(mesh)
    sidecar = os.devnull if path == os.devnull else path + ".causal.csv"
    with _rewrite(path) as fh:
        _write_rows(fh, "v {} {} {}\n", *mesh.positions.astype(np.float64, copy=False).T)
        # 1-based in the faces' own dtype where it holds the largest index
        wide = np.iinfo(mesh.faces.dtype).max < mesh.vertex_count
        _write_rows(fh, "f {} {} {}\n", *np.add(mesh.faces.T, 1, dtype=np.int64 if wide else None))
        if mesh.vertex_count == 0 and mesh.face_count == 0:
            fh.write(b"\n")
    with _rewrite(sidecar) as fh:
        fh.write(b"vertex_index,causal\r\n")
        _write_rows(fh, "{},{}\r\n", np.arange(1, mesh.vertex_count + 1),
                    np.array(CAUSAL_NAMES, dtype=bytes)[mesh.causal])


def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse `v`/`f` records back into (positions, faces), 0-based faces."""
    verts = []
    faces = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return (
        np.asarray(verts, dtype=float).reshape(-1, 3),
        np.asarray(faces, dtype=np.int32).reshape(-1, 3),
    )


# ---------------------------------------------------------------------------
# PLY
# ---------------------------------------------------------------------------

_PLY_VERTEX_DTYPE = np.dtype(
    [("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("causal", "u1")]
)
_PLY_FACE_DTYPE = np.dtype(
    [("count", "u1"), ("a", "<i4"), ("b", "<i4"), ("c", "<i4")]
)


def export_ply(mesh: SurfaceMesh, path: str) -> None:
    """Binary little-endian PLY with a uchar causal per vertex; checks the mesh first."""
    _check_mesh(mesh)
    header = "\n".join(
        [
            "ply",
            "format binary_little_endian 1.0",
            f"element vertex {mesh.vertex_count}",
            "property double x",
            "property double y",
            "property double z",
            "property uchar causal",
            f"element face {mesh.face_count}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
    )
    verts = np.empty(_WRITE_BLOCK, dtype=_PLY_VERTEX_DTYPE)
    faces = np.empty(_WRITE_BLOCK, dtype=_PLY_FACE_DTYPE)
    faces["count"] = 3
    with _rewrite(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(b"\n")
        for records, columns in ((verts, (*mesh.positions.T, mesh.causal)), (faces, mesh.faces.T)):
            for start in range(0, len(columns[0]), _WRITE_BLOCK):
                block = records[:len(columns[0]) - start]
                for name, column in zip(records.dtype.names[-len(columns):], columns):
                    block[name] = column[start:start + _WRITE_BLOCK]
                fh.write(block)


def read_ply(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the subset written by export_ply: (positions, causal, faces)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, body = blob.partition(b"end_header\n")
    nvert = nface = 0
    for line in head.decode("ascii").splitlines():
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nvert = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            nface = int(parts[2])
    verts = np.frombuffer(body, dtype=_PLY_VERTEX_DTYPE, count=nvert)
    faces = np.frombuffer(
        body[nvert * _PLY_VERTEX_DTYPE.itemsize:], dtype=_PLY_FACE_DTYPE, count=nface
    )
    positions = np.stack([verts["x"], verts["y"], verts["z"]], axis=1)
    tri = np.stack([faces["a"], faces["b"], faces["c"]], axis=1)
    return positions, np.asarray(verts["causal"]), tri


# ---------------------------------------------------------------------------
# level-curve CSV
# ---------------------------------------------------------------------------

def export_level_curves(curves, path: str) -> None:
    """RFC-4180 CSV of curve samples, sorted by (h, copy_index, param).

    Columns are (h, copy_index, param, x, y, t); the curve points arrive in
    native (t, x, y) order and are remapped here.  Raises ValueError, before
    the file is opened, if any value is not finite.  The sort is stable and
    treats -0.0 and 0.0 as equal.

    Rows of equal (h, copy_index) bits form a run, whose "h,copy_index,"
    is formatted once.  The n rotated copies of a level arc share their
    param and t bits, and the same-parity rays of h = 0 their params, so a
    run's param or t segment is formatted only where no earlier run had the
    same float64 bits (-0.0 and 0.0 differ); x and y go row by row.
    """
    tables = [np.empty((0, 6))]
    for curve in curves:
        params = np.asarray(curve.params, dtype=np.float64)
        points = np.asarray(curve.points, dtype=np.float64)
        rows = np.empty((len(params), 6))
        rows[:, 0] = float(curve.h)
        rows[:, 1] = int(curve.copy_index)
        rows[:, 2] = params
        rows[:, 3:] = points[:, _DISPLAY_ORDER]
        tables.append(rows)
    table = np.concatenate(tables)
    if not np.isfinite(table[:, [0, 2, 3, 4, 5]]).all():
        raise ValueError("level curve samples must be finite")
    table = table[np.lexsort((table[:, 2], table[:, 1], table[:, 0]))]
    bits = table[:, :2].view(np.int64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)][:len(table)])
    lengths = np.diff(np.r_[starts, len(table)])
    # first[0 or 1, run]: where the run's param or t text starts in words
    offsets, segments, size = {}, [np.empty(0)], 0
    first = np.empty((2, len(starts)), dtype=np.int64)
    for run, (a, length) in enumerate(zip(starts.tolist(), lengths.tolist())):
        for side, segment in enumerate((table[a:a + length, 2], table[a:a + length, 5])):
            key = segment.tobytes()
            if key not in offsets:
                offsets[key], size = size, size + length
                segments.append(segment)
            first[side, run] = offsets[key]
    words = np.ascontiguousarray(_float_field(np.concatenate(segments))).view(f"S{_FLOAT_WIDTH}")[:, 0]
    param, t = words[np.repeat(first - starts, lengths, axis=1) + np.arange(len(table))]
    prefixes = np.array([f"{h!r},{int(k)}," for h, k in table[starts, :2].tolist()], dtype=bytes)
    with _rewrite(path) as fh:
        fh.write(b"h,copy_index,param,x,y,t\r\n")
        _write_rows(fh, "{}{},{},{},{}\r\n", np.repeat(prefixes, lengths), param,
                    table[:, 3], table[:, 4], t)
