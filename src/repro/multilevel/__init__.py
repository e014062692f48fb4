"""Distributed multilevel partitioning (coarsen → partition → uncoarsen).

The flat label-propagation pipeline is fast but leaves cut quality on the
table; dKaMinPar (arXiv:2303.01417) and tera-scale multilevel partitioning
(arXiv:2410.19119) show that a distributed V-cycle — cluster, contract,
partition the coarse graph, then project up and refine per level — beats
flat partitioners on quality at comparable time.  This package is that
V-cycle on the simmpi SPMD runtime:

* :mod:`~repro.multilevel.kernels` — the shared-memory coarsening kernels
  (heavy-edge matching, size-constrained LP clustering, contraction),
  factored out of :mod:`repro.baselines.multilevel` and reused by both the
  baseline and the distributed coarsener;
* :mod:`~repro.multilevel.coarsen` — distributed clustering + contraction
  producing a smaller :class:`~repro.dist.distgraph.DistGraph` per level;
* :mod:`~repro.multilevel.hierarchy` — hierarchy construction, per-level
  state and projection, called by the one rank body
  (:func:`repro.core.driver._rank_main`) under ``PulpParams.multilevel``;
  the per-level refinement is :func:`repro.core.lp.lp_phase` under its
  edge-weighted ``ml_refine`` spec.
"""
