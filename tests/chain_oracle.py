"""Chain-level references for the diagonal's building blocks, kept as a test
oracle that shares no code with the package.

Chains are plain dicts with nonzero integer coefficients: a chain of the
standard simplex is ``{vertex tuple: int}``, a chain of C⊗C is
``{(left vertex tuple, right vertex tuple): int}``, and a chain of the bar
resolution RS₂ is ``{(twist, level): int}``, with ``twist`` False for e_n
and True for T·e_n.
"""


def add(acc: dict, key, value: int) -> None:
    """acc[key] += value, keeping only nonzero coefficients."""
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def combine(*terms) -> dict:
    """Σ scalar·chain over the (scalar, chain) pairs."""
    out: dict = {}
    for scalar, chain in terms:
        for key, value in chain.items():
            add(out, key, scalar * value)
    return out


def boundary(chain: dict) -> dict:
    """∂[v₀…v_t] = Σ (−1)^i [v₀…v̂ᵢ…v_t]; zero on vertices."""
    out: dict = {}
    for v, value in chain.items():
        for i in range(len(v) if len(v) > 1 else 0):
            add(out, v[:i] + v[i + 1 :], (-1) ** i * value)
    return out


def phi(k: int, face: tuple) -> dict:
    """φ_k: cone a face of Δ^k onto its top vertex k.

    φ_k([i₀,…,i_t]) = (−1)^{t+1}[i₀,…,i_t,k] when i_t ≠ k, else 0; with ι_k
    (vertex inclusion) and ε (augmentation), ∂φ_k + φ_k∂ = 1 − ι_k∘ε.
    """
    if any(not 0 <= x <= k for x in face):
        raise ValueError(f"face {face} does not live in the {k}-simplex")
    if any(face[i] >= face[i + 1] for i in range(len(face) - 1)):
        raise ValueError(f"face {face} must have strictly increasing vertices")
    if face[-1] == k:
        return {}
    return {face + (k,): (-1) ** len(face)}


def big_phi(k: int, chain: dict) -> dict:
    """Φ = φ_k⊗1 + (ι_k∘ε)⊗φ_k on C(Δ^k)⊗C(Δ^k); Φ∘Φ = 0.  The second
    summand survives only on degree-0 left factors (ε kills positive
    degrees), so no Koszul sign remains there."""
    out: dict = {}
    for (a, b), value in chain.items():
        for coned, sign in phi(k, a).items():
            add(out, (coned, b), sign * value)
        if len(a) == 1:
            for coned, sign in phi(k, b).items():
                add(out, ((k,), coned), sign * value)
    return out


def swap(chain: dict) -> dict:
    """The signed swap T(a⊗b) = (−1)^{|a|·|b|} b⊗a."""
    return {(b, a): (-1) ** ((len(a) - 1) * (len(b) - 1)) * value for (a, b), value in chain.items()}


def bar_boundary(chain: dict) -> dict:
    """∂ on RS₂, extended T-equivariantly (T² = 1):

        ∂e₀ = 0,   ∂e₁ = T·e₀ − e₀,   ∂e_n = e_{n−1} + (−1)ⁿ T·e_{n−1}  (n ≥ 2).
    """
    out: dict = {}
    for (twist, level), value in chain.items():
        if level == 0:
            continue
        plain, twisted = (-1, 1) if level == 1 else (1, (-1) ** level)
        add(out, (twist, level - 1), plain * value)
        add(out, (not twist, level - 1), twisted * value)
    return out
