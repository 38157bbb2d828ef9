"""The query proxy: submits parsed queries over the Figure 4 API.

The Cornell stack put a query proxy in each sensor node and a database
front end at the user.  This class is the front end: it turns query
text into a subscription, converts matching data messages back into
row-like results, and enforces the query's FOR duration by
unsubscribing when it expires.

It uses only the Figure 4 publish/subscribe API, no filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.core.api import DiffusionRouting, SubscriptionHandle
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.query.language import FIELD_KEYS, ParsedQuery, parse_query

#: data-attribute keys surfaced as result columns, by readable name
RESULT_FIELDS = dict(FIELD_KEYS)


@dataclass
class QueryResult:
    """One row: the data attributes of a matching message."""

    time: float
    values: Dict[str, Union[int, float, str, bytes]]

    def __getitem__(self, name: str):
        return self.values[name]

    def get(self, name: str, default=None):
        return self.values.get(name, default)


@dataclass
class QueryHandle:
    """A running query."""

    query: ParsedQuery
    subscription: SubscriptionHandle
    results: List[QueryResult] = field(default_factory=list)
    stopped: bool = False
    _expiry_event: object = None

    @property
    def row_count(self) -> int:
        return len(self.results)


class QueryProxy:
    """Runs queries for a user attached at one node."""

    def __init__(self, api: DiffusionRouting) -> None:
        self.api = api
        self.queries: List[QueryHandle] = []

    def submit(
        self,
        query_text: str,
        on_result: Optional[Callable[[QueryResult], None]] = None,
    ) -> QueryHandle:
        """Parse and launch a query; results accumulate on the handle."""
        parsed = parse_query(query_text)
        handle_box: List[QueryHandle] = []

        def deliver(attrs: AttributeVector, message) -> None:
            handle = handle_box[0]
            if handle.stopped:
                return
            result = QueryResult(
                time=self.api.node.sim.now,
                values=self._row_from(attrs),
            )
            handle.results.append(result)
            if on_result is not None:
                on_result(result)

        subscription = self.api.subscribe(parsed.to_interest(), deliver)
        handle = QueryHandle(query=parsed, subscription=subscription)
        handle_box.append(handle)
        if parsed.for_seconds is not None:
            handle._expiry_event = self.api.node.sim.schedule(
                float(parsed.for_seconds), self.stop, handle,
                name="query.expiry",
            )
        self.queries.append(handle)
        return handle

    def stop(self, handle: QueryHandle) -> None:
        """Terminate a query (idempotent)."""
        if handle.stopped:
            return
        handle.stopped = True
        if handle._expiry_event is not None:
            handle._expiry_event.cancel()
        self.api.unsubscribe(handle.subscription)

    @staticmethod
    def _row_from(attrs: AttributeVector) -> Dict[str, object]:
        row: Dict[str, object] = {}
        for name, key in RESULT_FIELDS.items():
            value = attrs.value_of(key)
            if value is not None:
                row[name] = value
        value = attrs.value_of(Key.TYPE)
        if value is not None:
            row["type"] = value
        value = attrs.value_of(Key.SEQUENCE)
        if value is not None:
            row["sequence"] = value
        value = attrs.value_of(Key.TIMESTAMP)
        if value is not None:
            row["timestamp"] = value
        return row
