"""Layer-attributed benchmark of the SAX-PAC serving stack.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/LAYERS.md`` maps
every metric to the layer and workload it measures.
"""
