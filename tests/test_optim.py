import numpy as np
import pytest

from hcntk import optim


def quadratic_bowl():
    a = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, 2.0, 3.0])
    x_star = np.linalg.solve(a, b)

    def fg(x):
        return float(0.5 * x @ a @ x - b @ x), a @ x - b

    return fg, x_star


def rosenbrock():
    def fg(x):
        f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        g = np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        return float(f), g

    return fg, np.ones(2)


class TestQuadraticBowl:
    def test_lbfgs(self):
        fg, x_star = quadratic_bowl()
        res = optim.lbfgs(np.zeros(3), fg, 100)
        assert np.abs(res.theta - x_star).max() <= 1e-6

    def test_adam(self):
        fg, x_star = quadratic_bowl()
        res = optim.adam(np.zeros(3), fg, lr=0.02, steps=20000)
        assert np.abs(res.theta - x_star).max() <= 1e-6

    def test_sgd(self):
        fg, x_star = quadratic_bowl()
        res = optim.sgd(np.zeros(3), fg, lr=0.005, steps=20000)
        assert np.abs(res.theta - x_star).max() <= 1e-6


class TestRosenbrock:
    def test_lbfgs(self):
        fg, x_star = rosenbrock()
        res = optim.lbfgs(np.array([-1.2, 1.0]), fg, 300)
        assert np.abs(res.theta - x_star).max() <= 1e-6

    def test_adam(self):
        fg, x_star = rosenbrock()
        res = optim.adam(np.array([-1.2, 1.0]), fg, lr=0.02, steps=30000)
        assert np.abs(res.theta - x_star).max() <= 1e-6


class TestStrongWolfe:
    def test_conditions_hold(self):
        fg, _ = rosenbrock()
        theta = np.array([-1.2, 1.0])
        f0, g0 = fg(theta)
        direction = -g0
        hit = optim.strong_wolfe(fg, theta, direction, f0, g0)
        assert hit is not None
        alpha, f_a, g_a, _ = hit
        d0 = g0 @ direction
        assert f_a <= f0 + 1e-4 * alpha * d0  # sufficient decrease
        assert abs(g_a @ direction) <= 0.9 * abs(d0)  # curvature

    def test_rejects_ascent_direction(self):
        fg, _ = quadratic_bowl()
        theta = np.zeros(3)
        f0, g0 = fg(theta)
        assert optim.strong_wolfe(fg, theta, g0, f0, g0) is None


class TestLbfgsStatus:
    def test_grad_converged_status(self):
        fg, _ = quadratic_bowl()
        res = optim.lbfgs(np.zeros(3), fg, 500)
        assert res.status in ("grad_converged", "line_search_failed", "finished")
        # at the minimum the gradient is numerically tiny
        _, g = fg(res.theta)
        assert np.abs(g).max() <= 1e-9

    def test_line_search_failure_is_status_not_exception(self):
        # |x| has no Wolfe point from the kink; the phase must end cleanly
        def fg(x):
            return float(np.abs(x[0])), np.array([np.sign(x[0]) or 1.0])

        res = optim.lbfgs(np.array([0.0]), fg, 50)
        assert res.status == "line_search_failed"

    def test_callback_sees_loss_before_update(self):
        fg, _ = quadratic_bowl()
        seen = []
        optim.lbfgs(np.zeros(3), fg, 5, callback=lambda k, loss, th: seen.append(loss))
        assert seen[0] == pytest.approx(fg(np.zeros(3))[0])
        assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))


class TestAdamDetails:
    def test_bias_correction_first_step(self):
        # with bias correction the first step size is exactly lr (up to eps)
        grad = np.array([0.3])
        fg = lambda x: (0.0, grad)
        res = optim.adam(np.zeros(1), fg, lr=0.1, steps=1)
        assert res.theta[0] == pytest.approx(-0.1, rel=1e-6)

    def test_deterministic(self):
        fg, _ = rosenbrock()
        r1 = optim.adam(np.array([-1.2, 1.0]), fg, lr=0.01, steps=100)
        r2 = optim.adam(np.array([-1.2, 1.0]), fg, lr=0.01, steps=100)
        assert np.array_equal(r1.theta, r2.theta)


def test_adam_in_place_matches_textbook_expressions():
    # the in-place update must give the same bits as the plain expressions
    fg, _ = rosenbrock()
    lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
    theta = np.array([-1.2, 1.0])
    m, v = np.zeros(2), np.zeros(2)
    want = []
    for k in range(300):
        _, grad = fg(theta)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        mhat = m / (1.0 - beta1 ** (k + 1))
        vhat = v / (1.0 - beta2 ** (k + 1))
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        want.append(theta)
    got = []
    res = optim.adam(np.array([-1.2, 1.0]), fg, lr, 300,
                     callback=lambda k, loss, th: got.append(th.copy()))
    assert all(np.array_equal(g, w) for g, w in zip(got[1:], want))
    assert np.array_equal(res.theta, want[-1])
