"""KERN002 green: protocol code delegates process fan-out to the
sanctioned runner instead of creating processes itself."""


def fan_out(run_parallel_scenario, config):
    # engine/parallel.py owns the pool: start method, crash surfacing.
    return run_parallel_scenario(config, workers=2)


def fork_free(os_module):
    return os_module.getpid()
