"""An independent high-precision re-derivation of the DICE-2016R recursion.

Every constant is restated literally, independent of the params module, and
the full state recursion advances with mpmath at 40 digits, sharing no code
with the implementation under test.
"""

from __future__ import annotations

from mpmath import mp, mpf

STATE_NAMES = ("L", "A", "K", "sigma", "E_Land", "M_AT", "M_UP", "M_LO", "T_AT", "T_LO")


def resimulate(mu, s):
    """Advance the default calibration under control rows ``mu`` and ``s``
    (H floats each, in [0, 1]).

    Returns the H+1 states as dicts of floats keyed by ``STATE_NAMES``, the
    welfare W and the peak temperature T_max.
    """
    with mp.workdps(40):
        ell_g, L_a = mpf("0.134"), mpf(11500)
        gamma, g_A, delta_A = mpf("0.3"), mpf("0.076"), mpf("0.005")
        delta_K, theta2 = mpf("0.1"), mpf("2.6")
        p_b, delta_pb = mpf(550), mpf("0.025")
        psi2 = mpf("0.00236")
        g_sigma, delta_sigma = mpf("0.0152"), mpf("0.001")
        delta_EL, E_L0 = mpf("0.115"), mpf("2.6")
        xi1, xi2 = mpf("0.1005"), mpf(3) / 11
        F_2x, M1750 = mpf("3.6813"), mpf(588)
        f0, f1, t_f = mpf("0.5"), mpf(1), mpf(17)
        alpha, rho, floor = mpf("1.45"), mpf("0.015"), mpf("1e-6")
        dt = mpf(5)

        L, A, K = mpf(7403), mpf("5.115"), mpf(223)
        sigma, E_Land = mpf("0.3503"), mpf("2.6")
        M_AT, M_UP, M_LO = mpf(851), mpf(460), mpf(1740)
        T_AT, T_LO = mpf("0.85"), mpf("0.0068")

        states = [(L, A, K, sigma, E_Land, M_AT, M_UP, M_LO, T_AT, T_LO)]
        W = mpf(0)
        for i, (mu_i, s_i) in enumerate(zip(mu, s)):
            mu_i, s_i = mpf(float(mu_i)), mpf(float(s_i))
            Y = A * K**gamma * (L / 1000) ** (1 - gamma)
            Omega = 1 / (1 + psi2 * T_AT**2)
            theta1 = p_b / (1000 * theta2) * (1 - delta_pb) ** i * sigma
            Q = (1 - theta1 * mu_i**theta2) * Omega * Y
            I = s_i * Q
            E = sigma * (1 - mu_i) * Y + E_Land
            F = F_2x * mp.log(M_AT / M1750) / mp.log(2) + f0 + min(
                (f1 - f0) * i / t_f, f1 - f0)
            cpc = 1000 * max(Q - I, floor) / L
            W += L * (cpc ** (1 - alpha) - 1) / (1 - alpha) / (1 + rho) ** (i * dt)
            L = ((1 + L_a) / (1 + L)) ** ell_g * L
            A = A / (1 - g_A * mp.exp(-delta_A * i * dt))
            K = (1 - delta_K) ** dt * K + I * dt
            sigma = sigma / mp.exp(dt * g_sigma * (1 - delta_sigma) ** (i * dt))
            E_Land = E_L0 * (1 - delta_EL) ** (i + 1)
            M_AT, M_UP, M_LO = (
                mpf("0.88") * M_AT + mpf("0.196") * M_UP + xi2 * E * dt,
                mpf("0.12") * M_AT + mpf("0.797") * M_UP + mpf("0.001465") * M_LO,
                mpf("0.007") * M_UP + mpf("0.99853488") * M_LO,
            )
            T_AT, T_LO = (
                mpf("0.8718") * T_AT + mpf("0.0088") * T_LO + xi1 * F,
                mpf("0.025") * T_AT + mpf("0.975") * T_LO,
            )
            states.append((L, A, K, sigma, E_Land, M_AT, M_UP, M_LO, T_AT, T_LO))
        T_max = max(state[8] for state in states)
        return ([dict(zip(STATE_NAMES, map(float, state))) for state in states],
                float(W), float(T_max))
