"""Canonical JSON text of immutable records, rendered once per instance.

Content-addressed keys (:mod:`repro.core.jobs`, :mod:`repro.core.plan`)
hash the sorted-key JSON of design configs, networks and cell libraries.
Those records are immutable, so each instance keeps its rendered text in
its own ``__dict__`` the first time a key needs it.  The memo lives and
dies with its object — there is no global table for a long-lived process
to outgrow — and :class:`KeepsCanonicalText` leaves it out of pickles and
copies, so a worker process renders its own instead of receiving it.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Tuple

#: Instance attribute holding a record's rendered canonical text.
_TEXT = "_canonical_text"


def canonical_json(document: Any) -> str:
    """The canonical (sorted-key, compact) JSON text of ``document``."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def kept_text(record: Any, render: Callable[[Any], Any]) -> str:
    """``record``'s canonical text: ``render(record)`` serialized once, then kept.

    Each record type has exactly one renderer, so the kept text is always
    the one ``render`` would produce.  The text is stored straight into
    the instance ``__dict__``, which a frozen record still allows.
    """
    text = record.__dict__.get(_TEXT)
    if text is None:
        text = canonical_json(render(record))
        record.__dict__[_TEXT] = text
    return text


class KeepsCanonicalText:
    """Mixin for records memoized by :func:`kept_text`: the memo never
    rides along in a pickle or a copy.

    A subclass that keeps more per-instance memos names their attributes
    in ``_memos``; they are dropped the same way.
    """

    _memos: Tuple[str, ...] = (_TEXT,)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for name in self._memos:
            state.pop(name, None)
        return state
