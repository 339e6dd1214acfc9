"""Column-major sparse matrices: {col: {row: value}} with no stored zeros."""

from __future__ import annotations


def compose(a: dict, b: dict) -> dict:
    """Matrix product a @ b (apply b first)."""
    out = {}
    for col, bcol in b.items():
        acc = {}
        for mid, v in bcol.items():
            acol = a.get(mid)
            if not acol:
                continue
            for row, w in acol.items():
                new = acc.get(row, 0) + w * v
                if new:
                    acc[row] = new
                else:
                    acc.pop(row, None)
        if acc:
            out[col] = acc
    return out


def madd(*mats) -> dict:
    out = {}
    for m in mats:
        for col, mcol in m.items():
            acc = out.setdefault(col, {})
            for row, v in mcol.items():
                new = acc.get(row, 0) + v
                if new:
                    acc[row] = new
                else:
                    acc.pop(row, None)
            if not acc:
                out.pop(col, None)
    return out


def mscale(m: dict, factor) -> dict:
    if not factor:
        return {}
    return {col: {row: factor * v for row, v in mcol.items()}
            for col, mcol in m.items()}


def msub(a: dict, b: dict) -> dict:
    return madd(a, mscale(b, -1))


def transpose(m: dict) -> dict:
    """Swap the roles of rows and columns: {col: {row: v}} -> {row: {col: v}}."""
    out: dict = {}
    for col, mcol in m.items():
        for row, v in mcol.items():
            out.setdefault(row, {})[col] = v
    return out


def identity(dim: int, one=1) -> dict:
    return {k: {k: one} for k in range(dim)}


def is_scalar_multiple(m: dict, dim: int, value) -> bool:
    """Does m equal value * id on a dim-dimensional space?"""
    if not value:
        return not m
    return all(m.get(col, {}) == {col: value} for col in range(dim))


def apply_cols(m: dict, vec: dict) -> dict:
    out = {}
    for col, v in vec.items():
        mcol = m.get(col)
        if not mcol:
            continue
        for row, w in mcol.items():
            new = out.get(row, 0) + w * v
            if new:
                out[row] = new
            else:
                out.pop(row, None)
    return out
