"""Seeded inputs for the four benchmark workloads.

The seed only moves values, never sizes: it shifts the log-spaced rc grid by
a random fraction of one step and draws each finite noise cutoff
log-uniformly inside a fixed band. Config files are fixed texts. Inputs come
from ``random.Random(seed)`` so they do not depend on the numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

RC_LO, RC_HI = 1e-9, 1e-3

BUNDLED = ("auriga", "bulk-heating", "cantilever", "cold-atom", "ligo",
           "lisa-pathfinder", "xray")

SCAN_WORKLOADS = ("scan-bundled-dense", "scan-primitive-quad", "scan-composite-pairs")
QUERY_WORKLOAD = "point-queries"
WORKLOADS = SCAN_WORKLOADS + (QUERY_WORKLOAD,)

# Decade bands (log10 rad/s) for the seven finite cutoffs of the dense scan,
# centred on the cutoffs of the ROADMAP's dense-scan baseline. One narrow
# band per cutoff keeps washed-out shares, and so run time, nearly the same
# for every seed.
_DENSE_CUTOFF_BANDS = ((14.5, 15.5), (11.5, 12.5), (8.5, 9.5), (5.5, 6.5),
                       (3.5, 4.5), (1.5, 2.5), (0.5, 1.5))

# Configs for scan-primitive-quad: shapes whose eta (or lambda_eff) needs the
# quadrature routes on most of the grid, so every point is a cache miss.
PRIMITIVE_CONFIGS = {
    # (R/rc)^2 < 2000 for rc > 2.3e-9 m: radial Gauss-Kronrod rule
    "nanosphere.cfg": """\
id = nanosphere
kind = optomechanical
provenance = "benchmark input: 100 nm silica sphere"

[geometry]
shape = sphere
radius = 1e-07
density = 2200.0
measurement_axis = 0 0 1

[ceiling]
kind = force_psd
value = 1e-40
probe_hz = 100000.0
""",
    # u = R^2/(2 rc^2) < 50 on the whole grid: J1^2 moments by quadrature
    "nanorod.cfg": """\
id = nanorod
kind = optomechanical
provenance = "benchmark input: silica rod, radius 10 nm, length 200 nm"

[geometry]
shape = cylinder
radius = 1e-08
length = 2e-07
axis = 0 0 1
density = 2200.0
measurement_axis = 1 0 0

[ceiling]
kind = force_psd
value = 1e-42
probe_hz = 100000.0
""",
    # point/cuboid pair: Cartesian interference closed forms
    "tip-beam.cfg": """\
id = tip-beam
kind = optomechanical
provenance = "benchmark input: silica beam 450 x 57 x 2.5 um with a point tip mass"

[geometry]
shape = composite
measurement_axis = 0 0 1

[[geometry.part]]
shape = cuboid
lx = 0.00045
ly = 5.7e-05
lz = 2.5e-06
density = 2200.0
offset = 0 0 0

[[geometry.part]]
shape = point_mass
mass = 1.1e-10
offset = 0.000225 0 0

[ceiling]
kind = force_psd
value = 1.87e-36
probe_hz = 8174.01
""",
    # full_sine dispersion: lambda_eff by quadrature
    "lattice-heating.cfg": """\
id = lattice-heating
kind = bulk_heating
provenance = "benchmark input: copper-like lattice, a = 2.5e-10 m, v_s = 3000 m/s"

[phonon]
v_s = 3000.0
dispersion = full_sine
force_constant = 15.192
atom_mass = 1.055e-25
plane_spacing = 2.5e-10

[ceiling]
kind = heating_power
value = 1e-11
""",
}

# Configs for scan-composite-pairs: cross terms that need the isotropic
# radial route, including the inputs that fail at this commit.
COMPOSITE_CONFIGS = {
    # touching 100 um spheres: oscillation panels exceed the limit below
    # rc ~ 3e-8 m (QuadratureNotConverged)
    "touching-spheres.cfg": """\
id = touching-spheres
kind = optomechanical
provenance = "benchmark input: two touching 100 um silica spheres"

[geometry]
shape = composite
measurement_axis = 1 0 0

[[geometry.part]]
shape = sphere
radius = 0.0001
density = 2200.0
offset = -0.0001 0 0

[[geometry.part]]
shape = sphere
radius = 0.0001
density = 2200.0
offset = 0.0001 0 0

[ceiling]
kind = force_psd
value = 1e-30
probe_hz = 1000.0
""",
    "sphere-point.cfg": """\
id = sphere-point
kind = optomechanical
provenance = "benchmark input: 50 um sphere with a point mass 100 um from its centre"

[geometry]
shape = composite
measurement_axis = 1 0 0

[[geometry.part]]
shape = sphere
radius = 5e-05
density = 7430.0
offset = 0 0 0

[[geometry.part]]
shape = point_mass
mass = 1e-09
offset = 0.0001 0 0

[ceiling]
kind = force_psd
value = 1e-32
probe_hz = 1000.0
""",
    # surface gap 9.1 um: CompositeCrossTermUnsupported for rc > gap/24
    "rod-sphere.cfg": """\
id = rod-sphere
kind = optomechanical
provenance = "benchmark input: 50 um x 200 um rod beside a 20 um sphere, 9.1 um gap"

[geometry]
shape = composite
measurement_axis = 1 0 0

[[geometry.part]]
shape = cylinder
radius = 5e-05
length = 0.0002
axis = 0 0 1
density = 2200.0
offset = 0 0 0

[[geometry.part]]
shape = sphere
radius = 2e-05
density = 7430.0
offset = 0.00014090 0 0

[ceiling]
kind = force_psd
value = 1e-32
probe_hz = 1000.0
""",
}

# (number of rc points, band of the one finite cutoff in log10 rad/s, configs)
_SCAN_SHAPES = {
    "scan-bundled-dense": (300, None, {}),
    "scan-primitive-quad": (300, (4.0, 6.0), PRIMITIVE_CONFIGS),
    "scan-composite-pairs": (200, (3.0, 5.0), COMPOSITE_CONFIGS),
}


@dataclass(frozen=True)
class ScanInputs:
    """Arguments of one ``ccsl scan`` and the config files it reads.

    ``experiments`` holds bundled ids or config file names, relative to the
    directory the scan runs in."""

    experiments: tuple[str, ...]
    rc_grid: str            # "<lo>:<hi>:<n>", as passed to --rc-grid
    omega_c: tuple[str, ...]  # cutoff tokens, as passed to --omega-c
    configs: dict = field(default_factory=dict)  # file name -> text

    def argv(self, out_dir: str, jobs: int) -> list[str]:
        return ["scan", "--experiments", ",".join(self.experiments),
                "--rc-grid", self.rc_grid, "--omega-c", ",".join(self.omega_c),
                "--out-dir", out_dir, "--jobs", str(jobs)]

    @property
    def n_rc(self) -> int:
        return int(self.rc_grid.split(":")[2])

    @property
    def points(self) -> int:
        return len(self.experiments) * self.n_rc * len(self.omega_c)


def _cutoff_token(rng: random.Random, lo: float, hi: float) -> str:
    return f"{10.0 ** rng.uniform(lo, hi):.6e}"


def _shifted_grid(rng: random.Random, n: int) -> str:
    step = math.log10(RC_HI / RC_LO) / (n - 1)
    shift = 10.0 ** (rng.random() * step)
    return f"{RC_LO * shift!r}:{RC_HI * shift!r}:{n}"


def scan_inputs(workload: str, seed: int) -> ScanInputs:
    n, band, configs = _SCAN_SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    grid = _shifted_grid(rng, n)
    if workload == "scan-bundled-dense":
        cutoffs = ("inf",) + tuple(_cutoff_token(rng, lo, hi)
                                   for lo, hi in _DENSE_CUTOFF_BANDS)
        return ScanInputs(BUNDLED, grid, cutoffs)
    names = tuple(sorted(configs))
    return ScanInputs(names, grid, (_cutoff_token(rng, *band),), dict(configs))


# One round of the query stream: every bundled experiment with three bound
# requests and one predict.
_QUERY_ROUND = tuple((command, exp) for exp in BUNDLED
                     for command in ("bound", "bound", "bound", "predict"))


def query_stream(seed: int):
    """Endless seeded stream of ``ccsl`` argv lists for point-queries: three
    quarters ``bound`` and one quarter ``predict``, half CSV and half JSON,
    experiment uniform over the bundled set, rc log-uniform on
    [1e-9, 1e-3] m, noise white or exponential with a log-uniform cutoff.
    Requests come in rounds of 28, stratified so that the mix of the first
    1000, and so their cost, barely depends on the seed: each round holds
    every (command, experiment) pair of _QUERY_ROUND once, in a seeded
    order, with one rc from each of 28 equal log bands, shuffled."""
    rng = random.Random(f"{QUERY_WORKLOAD}:{seed}")
    lo, hi = math.log10(RC_LO), math.log10(RC_HI)
    n = len(_QUERY_ROUND)
    while True:
        for (command, exp), band in zip(rng.sample(_QUERY_ROUND, n), rng.sample(range(n), n)):
            rc = 10.0 ** (lo + (hi - lo) * (band + rng.random()) / n)
            noise = "white" if rng.random() < 0.5 else f"exp:{10.0 ** rng.uniform(1.0, 15.0)!r}"
            fmt = rng.choice(("csv", "json"))
            argv = [command, "--experiment", exp]
            if command == "predict":
                argv += ["--lambda", repr(10.0 ** rng.uniform(-20.0, -8.0))]
            argv += ["--rc", repr(rc), "--noise", noise, "--format", fmt]
            yield argv
