"""Dense dot products, norms, cosines and sentence means as explicit Python
loops: the products, or the vectors, are added left to right, starting from
the first one (not from 0.0, so a sum of signed zeros keeps its sign)."""

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


def mean(vectors) -> list[float]:
    """The mean of a non-empty list of equal-length vectors: added left to
    right, starting from the first vector, then divided once by the count."""
    total = list(map(float, vectors[0]))
    for vector in vectors[1:]:
        total = [t + float(x) for t, x in zip(total, vector)]
    return [t / len(vectors) for t in total]
