"""Reference helpers shared by the test modules; the library has no use
for them."""

from quasinv.bipoly import BiPoly


def homogeneous_components(p: BiPoly) -> list[tuple[int, BiPoly]]:
    """Split into homogeneous parts, ascending total degree."""
    parts: dict[int, dict] = {}
    for (a, b), c in p.terms.items():
        parts.setdefault(a + b, {})[(a, b)] = c
    return [(d, BiPoly(t)) for d, t in sorted(parts.items())]
