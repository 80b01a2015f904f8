"""Calibration probe for the KS acceptance instance (criteria 05 and 07).

Runs the raw (gamma=0, unpreconditioned) CG solve, the Lanczos extremes
of S and of M S (from the symmetric M^1/2 S M^1/2), and the
finite-difference reference, and writes ``ks_calib.json`` next to this
file.  The trajectory's initial state is
drawn with ``default_rng(5)``, not with the pipeline's
``SeedSequence(seed).spawn(2)[0]``, so it is not the trajectory that
``run_pipeline`` builds for seed 5.  The finite-difference reference
goes through ``finite_difference_reference`` and draws as it does.

Run with ``PYTHONPATH=src python .calib/ks_calibrate.py``.
"""

import json
import time
from pathlib import Path
import numpy as np
import msshadow as ms
from msshadow import analysis

out = {}
t00 = time.perf_counter()

sysk = ms.KuramotoSivashinsky(n=127, length=128.0, c=0.8)
rng = np.random.default_rng(5)
u0 = rng.uniform(0, 1, 127)
us = ms.advance(sysk, u0, -1000.0, 0.0, 0.02)
traj = ms.integrate(sysk, us, 0.0, 100.0, 0.02, stride=500)
led = ms.CostLedger()
b = ms.assemble_rhs(traj, led)
pc = ms.build_preconditioner(traj, led, 15, 2, rng=np.random.default_rng(1))
obj = ms.SpatialMean(sysk)

# raw gamma=0 solve at 1e-5 (criterion 7 comparison)
t0 = time.perf_counter()
cfg0 = ms.SolveConfig(tol=1e-5, max_iter=20000, gamma=0.0, mode='none', preconditioner=None)
w0, rep0 = ms.cg_solve(lambda z: ms.schur_apply(traj, led, z), b, cfg0)
out['raw_iters'] = rep0.iterations
out['raw_converged'] = rep0.converged
out['raw_wall'] = time.perf_counter() - t0
v0 = ms.recover_checkpoints(traj, led, w0)
out['raw_sens'] = ms.evaluate_sensitivity(traj, obj, v0)

# spectrum extremes via matvec products
scratch = ms.CostLedger()
t0 = time.perf_counter()
def schur(x):
    return ms.schur_apply(traj, scratch, x.reshape(10, 127)).reshape(-1)
rep_s = analysis.spectrum(schur, 1270, label='raw')
# M^1/2 S M^1/2, similar to M S, keeps the operator symmetric
rep_m = analysis.spectrum(
    lambda x: pc.apply_sqrt(schur(pc.apply_sqrt(x))), 1270, label='pre')
out['mu_S'] = [rep_s.eigenvalues[0], rep_s.eigenvalues[-1], rep_s.converged]
out['mu_MS'] = [rep_m.eigenvalues[0], rep_m.eigenvalues[-1], rep_m.converged]
out['spectrum_wall'] = time.perf_counter() - t0

# FD reference: delta=0.05, 8 samples, horizon 1500
from msshadow.xcli import ExperimentConfig, finite_difference_reference
cfg = ExperimentConfig(model='ks', seed=5, n=127, length=128.0, c=0.8,
                       spin_up=1000.0, window=100.0, segment=10.0, step=0.02,
                       output_dir='/tmp/ksfd')
t0 = time.perf_counter()
mean, se, samples = finite_difference_reference(cfg, 0.05, 8, 1500.0)
out['fd_mean'] = mean
out['fd_se'] = se
out['fd_samples'] = list(samples)
out['fd_wall'] = time.perf_counter() - t0
out['total_wall'] = time.perf_counter() - t00

with open(Path(__file__).with_name('ks_calib.json'), 'w') as fh:
    json.dump(out, fh, indent=1)
print(json.dumps(out, indent=1))
