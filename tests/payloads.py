"""A rendering of a simulation result that does not depend on the cache's
entry format, for tests that pin a result's values by hash."""


def columns_document(run):
    """The simulate payload as entry format 2 stored it: the result's
    scalars, its layer columns as lists and its activity.  A hash of its
    sorted-key JSON moves only when a stored value moves."""
    return {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "frequency_ghz": run.frequency_ghz,
        "layers": run.columns,
        "activity": dict(run.activity.effective_cycles),
    }
