"""Dense probe of the KS acceptance instance (criterion 06).

Assembles the dense constraint matrix, takes its SVD and the
truncated-SVD sensitivity curve, and writes ``ks_dense.json`` next to
this file.  The trajectory's initial state is drawn with
``default_rng(5)``, not with the pipeline's
``SeedSequence(seed).spawn(2)[0]``, so it is not the trajectory that
``run_pipeline`` builds for seed 5.

Run with ``PYTHONPATH=src python .calib/ks_dense_probe.py``.
"""

import json
import time
from pathlib import Path
import numpy as np
import msshadow as ms
from msshadow import analysis, xcli

t0 = time.perf_counter()
sysk = ms.KuramotoSivashinsky(n=127, length=128.0, c=0.8)
rng = np.random.default_rng(5)
u0 = rng.uniform(0, 1, 127)
us = ms.advance(sysk, u0, -1000.0, 0.0, 0.02)
traj = ms.integrate(sysk, us, 0.0, 100.0, 0.02, stride=500)
led = ms.CostLedger()
b = ms.assemble_rhs(traj, led)
a = analysis.dense_constraint_matrix(traj, led)
t_asm = time.perf_counter() - t0

t0 = time.perf_counter()
svd = np.linalg.svd(a, full_matrices=False)
sv = svd[1]
t_svd = time.perf_counter() - t0

out = {
    't_assemble': t_asm, 't_svd': t_svd,
    'sigma_max': sv[0], 'sigma_min': sv[-1],
    'n_ge_1': int((sv >= 1.0).sum()),
    'n_ge_05': int((sv >= 0.5).sum()),
    'n_ge_01': int((sv >= 0.1).sum()),
    'nk': len(sv),
}

obj = ms.SpatialMean(sysk)
plateau_end = out['n_ge_1']; plateau_zone = out['n_ge_05']; noise = out['n_ge_01']
ranks = sorted(set([plateau_end, plateau_zone]
                   + list(np.linspace(plateau_end, plateau_zone, 6).astype(int))
                   + list(np.linspace(noise, len(sv), 6).astype(int))
                   + list(np.linspace(1, plateau_end, 8).astype(int))))
t0 = time.perf_counter()
functional = (ms.sensitivity_functional(traj, obj),
              ms.evaluate_sensitivity(traj, obj, np.zeros((b.shape[0] + 1, 127))))
curve = analysis.sensitivity_vs_rank(traj, b, ranks, svd, functional)
out['t_curve'] = time.perf_counter() - t0
out['curve'] = curve
out['sigma_at'] = {str(r): float(sv[min(r, len(sv)) - 1]) for r in ranks}

with open(Path(__file__).with_name('ks_dense.json'), 'w') as fh:
    json.dump(out, fh, indent=1)
print(json.dumps(out, indent=1))
