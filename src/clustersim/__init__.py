"""Desk-scale simulator of fiber-transmitted multi-level time-bin cluster states.

Subpackages follow the experiment's signal chain: ``source`` prepares the
four-qubit time-bin cluster state, ``cpm``/``waveform`` implement the
chirp-modulate-unchirp beam splitter discretely and on sampled fields,
``channel`` adds link loss and thermal drift, ``detection`` realizes the
18-segment measurement schedule as coincidence counts, and ``analysis``
evaluates the entanglement witness, fringe fits and multiplexing capacity.
"""

__all__ = ["__version__"]

__version__ = "1.0.0"
