"""Central finite-difference gradient oracle shared by the test suites.

Graphs are rebuilt in float64 and compared coordinate by coordinate
against (f(x+h) - f(x-h)) / 2h. For large parameter tensors a random
subset of coordinates is probed instead of the full tensor.
"""

import numpy as np

from fftsr.tensor import Tensor, no_grad

H_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-8


def _agrees(analytic: float, numeric: float, rel_tol: float, abs_tol: float) -> bool:
    return abs(analytic - numeric) <= rel_tol * max(abs(analytic), abs(numeric)) + abs_tol


def _central(eval_at, base: float, h: float) -> float:
    return (eval_at(base + h) - eval_at(base - h)) / (2.0 * h)


def _check_coord(eval_at, base: float, analytic: float, h: float, rel_tol: float, abs_tol: float, label: str):
    """Compare one coordinate; retry with a smaller step on mismatch.

    A ReLU/L1 kink inside the +-h window corrupts the central estimate;
    shrinking h moves the window off the kink, while a genuinely wrong
    gradient keeps disagreeing at every step size.
    """
    numeric = _central(eval_at, base, h)
    if _agrees(analytic, numeric, rel_tol, abs_tol):
        return
    numeric = _central(eval_at, base, h * 0.01)
    assert _agrees(analytic, numeric, rel_tol, abs_tol * 10), (
        f"grad mismatch: {label}: analytic {analytic!r} numeric {numeric!r} "
        f"(diff {abs(analytic - numeric):.3e})"
    )


def check_gradients(
    fn,
    arrays,
    rng=None,
    max_coords_per_tensor=24,
    h=H_STEP,
    rel_tol=REL_TOL,
    abs_tol=ABS_TOL,
):
    """Assert analytic gradients of ``fn`` match central differences.

    ``fn`` maps a list of float64 Tensors to a scalar Tensor. ``arrays``
    are the float64 numpy inputs; every one is treated as differentiable.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True, dtype=np.float64) for a in arrays]
    out = fn(tensors)
    assert out.size == 1, "gradcheck target must be scalar"
    out.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    rng = rng or np.random.default_rng(0)
    for idx, base in enumerate(arrays):
        flat = base.reshape(-1)
        n = flat.size
        if n <= max_coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        ana_flat = analytic[idx].reshape(-1)
        for c in coords:
            def eval_at(value, idx=idx, c=c):
                probe = [a.copy() for a in arrays]
                probe[idx].reshape(-1)[c] = value
                return fn([Tensor(a, dtype=np.float64) for a in probe]).item()

            base = float(arrays[idx].reshape(-1)[c])
            _check_coord(
                eval_at, base, float(ana_flat[c]), h, rel_tol, abs_tol, f"input {idx} coord {c}"
            )


def to_float64(module):
    """Cast a built module's parameters and buffers to float64 in place.

    Modules are built in float32; the finite-difference checks need the
    extra precision. Returns the module.
    """
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
    for _, owner, name in module.named_buffers():
        setattr(owner, name, getattr(owner, name).astype(np.float64))
    return module


def check_param_gradients(
    loss_fn,
    named_params,
    rng=None,
    max_coords_per_tensor=4,
    h=H_STEP,
    rel_tol=REL_TOL,
    abs_tol=ABS_TOL,
):
    """Finite-difference check for model parameters perturbed in place.

    ``loss_fn`` recomputes the scalar loss from the parameters' current
    values; every tensor in ``named_params`` must be float64.
    """
    rng = rng or np.random.default_rng(0)
    named_params = list(named_params)
    for _, p in named_params:
        assert p.data.dtype == np.float64, "parameter gradcheck requires float64 models"
        p.grad = None
    out = loss_fn()
    out.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in named_params
    }
    for name, p in named_params:
        base = p.data.copy()
        n = base.size
        if n <= max_coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        ana_flat = analytic[name].reshape(-1)
        for c in coords:
            def eval_at(value, p=p, base=base, c=c):
                probe = base.copy()
                probe.reshape(-1)[c] = value
                p.data = probe
                with no_grad():
                    result = loss_fn().item()
                p.data = base
                return result

            _check_coord(
                eval_at,
                float(base.reshape(-1)[c]),
                float(ana_flat[c]),
                h,
                rel_tol,
                abs_tol,
                f"param {name} coord {c}",
            )
