"""Every scheme the paper compares against (§2, §7).

``regular_iblt`` — Invertible Bloom Lookup Tables [Goodrich & Mitzenmacher
                   2011; Eppstein et al. 2011], the non-rateless ancestor.
``strata``       — the Eppstein et al. strata estimator used to size
                   regular IBLTs ("Regular IBLT + Estimator" in Fig 7).
``met_iblt``     — MET-IBLT [Lázaro & Matuz 2023], rate-compatible blocks
                   optimised for preset difference sizes.
``pinsketch``    — BCH-syndrome set sketches [Dodis et al. 2008], the
                   algorithm behind Minisketch.
``merkle``       — hexary Merkle trie + the *state heal* protocol used by
                   Ethereum in production (§7.3).
"""
