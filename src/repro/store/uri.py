"""Store URIs: one string selects a backend, a location and an eviction policy.

Accepted forms (``--cache``, ``$MAS_CACHE_URI``, ``ResultCache(...)``):

=====================================  ====================================
URI                                    Meaning
=====================================  ====================================
``/path/to/dir`` (no scheme)           JSON-directory store
``dir:/path`` / ``dir:///path``        JSON-directory store, explicit
``jsondir:/path``                      alias of ``dir:``
``sqlite:///path/to/cache.db``         SQLite store (single file, WAL)
``sqlite:cache.db``                    SQLite store, relative path
=====================================  ====================================

Any other ``<scheme>://`` prefix (``http://``, ``shard:http://``, a typo)
is rejected rather than read as a directory name.  Query parameters
configure the eviction policy (``max_entries``, ``max_bytes``, ``ttl`` age
expiry) and apply to either backend::

    sqlite:///cache.db?max_entries=10000&max_bytes=2GiB
    dir:/var/cache/mas?max_entries=500&ttl=7d
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.store.base import ResultStore
from repro.store.eviction import EvictionPolicy
from repro.store.jsondir import JsonDirStore
from repro.store.sqlite import SqliteStore

__all__ = ["MAS_CACHE_URI_ENV", "open_store"]

#: Environment variable supplying the default store URI.
MAS_CACHE_URI_ENV = "MAS_CACHE_URI"

_BACKENDS = {
    "dir": JsonDirStore,
    "jsondir": JsonDirStore,
    "sqlite": SqliteStore,
}

#: The accepted forms, quoted by the error for any other scheme.
_ACCEPTED_FORMS = (
    "a directory path, dir:/path, jsondir:/path or sqlite:///path.db "
    "(optionally with ?max_entries=N&max_bytes=SIZE&ttl=AGE)"
)


def _split(uri: str) -> tuple[str, str, dict[str, str]]:
    """Split a store URI into (scheme, path, query params)."""
    parts = urlsplit(uri)
    scheme = parts.scheme.lower()
    if scheme not in _BACKENDS:
        # A URL-shaped string with a scheme no backend serves (http://...,
        # shard:http://..., a typo like foo://x) must fail, not become a
        # literal 'foo:' directory.  One-letter schemes are drive letters.
        if len(scheme) > 1 and "://" in uri:
            raise ValueError(
                f"unsupported store URI {uri!r}; accepted forms: {_ACCEPTED_FORMS}"
            )
        # No recognized scheme: the string is a plain directory path.
        # (Windows drive letters and scheme-less relative paths land here.)
        # A ``?key=value`` suffix still configures the eviction policy — a
        # path the user meant as ``dir:...?max_bytes=1G`` must not silently
        # become a literal '?'-named directory with an unbounded policy.
        path, sep, query = uri.partition("?")
        params = dict(parse_qsl(query)) if sep else {}
        if sep and not params:
            return "dir", uri, {}  # bare '?' with no key=value: literal path
        return "dir", path, params
    # ``sqlite:///abs.db`` puts the path in ``parts.path``; ``sqlite:rel.db``
    # does too; ``dir://host/x`` would smuggle a netloc — reject that.
    if parts.netloc:
        raise ValueError(
            f"store URI {uri!r} has a network location; "
            "only local paths are supported (use e.g. sqlite:///abs/path.db)"
        )
    path = parts.path
    if not path:
        raise ValueError(f"store URI {uri!r} is missing a path")
    while path.startswith("//"):  # sqlite:////x and //x collapse to /x
        path = path[1:]
    if path.startswith("/~"):  # sqlite:///~/x.db: make the tilde expandable
        path = path[1:]
    return scheme, path, dict(parse_qsl(parts.query))


def open_store(target: str | Path | None) -> ResultStore | None:
    """Open the result store a URI (or plain directory path) describes.

    ``None`` and empty strings return ``None`` (no store).  Unsupported
    schemes, unknown query parameters and malformed policies raise
    ``ValueError`` eagerly, so a mistyped URI or cap fails the run instead of
    silently writing somewhere else or not evicting.
    """
    if target is None:
        return None
    if isinstance(target, Path):
        return JsonDirStore(target)
    uri = target.strip()
    if not uri:
        return None
    scheme, path, params = _split(uri)
    policy = EvictionPolicy.from_query(params)
    return _BACKENDS[scheme](Path(path).expanduser(), policy=policy)

