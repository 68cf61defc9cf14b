"""Dense dot products, norms and cosines as explicit Python loops over the
dimensions: the products are added left to right, starting from the first
product (not from 0.0, so a dot product of signed zeros keeps its sign)."""

import math


def dot(xs, ys) -> float:
    xs, ys = list(map(float, xs)), list(map(float, ys))
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


def norm(xs) -> float:
    return math.sqrt(dot(xs, xs))


def cosine(xs, ys) -> float:
    """dot / (norm(xs) * norm(ys)), and 0.0 when that product is 0.0."""
    denom = norm(xs) * norm(ys)
    return dot(xs, ys) / denom if denom != 0.0 else 0.0
