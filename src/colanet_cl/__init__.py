"""Columnar spiking networks with a continual-learning benchmark harness.

The package splits into data handling (``dataset``, ``encoder``), the
spiking model (``snncore``, ``colanet``), a dense reference model
(``baseline``), the state-file framing both models share (``statefile``),
the benchmark machinery (``clbench``), and a command-line front end
(``cli``). The network's race has two callers: ``train_sample`` for one
labeled image, and ``score`` for a task's drawn test split.
"""
