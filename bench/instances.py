"""Seeded instances: writes every point file of a workload before timing starts."""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from mebkit import gen_instance, write_points


@dataclass
class Built:
    """An instance as written: the exact points, its file and the generator's labels."""

    spec: object
    points: np.ndarray
    path: str
    labels: dict

    def record(self) -> dict:
        return {"name": self.spec.name, "kind": self.spec.kind, "n": int(self.points.shape[0]),
                "d": int(self.points.shape[1]), "format": self.spec.fmt,
                "bytes": os.path.getsize(self.path)}


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode("utf-8"))])


def rotation(seed: int, name: str, d: int) -> np.ndarray:
    """A seeded rotation of R^d (Haar-distributed orthogonal matrix)."""
    q, r = np.linalg.qr(_rng(seed, name).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def build(instances, seed: int, directory: str) -> dict[str, Built]:
    """Write every instance under ``directory``; returns them by name.

    The base cloud depends only on the instance name; ``seed`` picks its
    rotation (see workloads.py for why).
    """
    os.makedirs(directory, exist_ok=True)
    built: dict[str, Built] = {}
    for spec in instances:
        if spec.source is not None:
            src = built[spec.source]
            points = src.points * spec.scale + spec.shift
            labels = src.labels
        else:
            base, labels = gen_instance(spec.kind, spec.n, spec.d,
                                        seed=zlib.crc32(spec.name.encode("utf-8")), **spec.params)
            rot = rotation(seed, spec.name, spec.d)
            points = base @ rot.T
            cert = labels.get("certificate")
            if cert is not None and "centers" in cert:
                cert = dict(cert, centers=np.asarray(cert["centers"]) @ rot.T)
                labels = dict(labels, certificate=cert)
        path = os.path.join(directory, f"{spec.name}.{spec.fmt}")
        write_points(path, points, spec.fmt)
        built[spec.name] = Built(spec, points, path, labels)
    return built
