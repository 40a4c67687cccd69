"""Synchronous HTTP-over-simulated-internet transport.

The transport maps host names to request handlers (websites, the mail
verification endpoints, ...), stamps each request with the client IP and the
simulation time, and keeps a per-host request log so the ethics
accounting of Section 3 (page-load rate limits, per-site registration
attempt counts) can be audited after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

from repro.net.ipaddr import IPv4Address
from repro.obs import NO_OP
from repro.sim.protocols import ClockLike
from repro.util.timeutil import SimInstant

#: Back-compat alias: the clock seam now lives in :mod:`repro.sim.protocols`.
Clock = ClockLike


class TransportError(Exception):
    """Base class for transport-level failures."""


class HostUnreachable(TransportError):
    """No handler is registered for the requested host (or it is down)."""


class TlsError(TransportError):
    """HTTPS requested but the host cannot present a valid certificate."""


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request as seen by a site handler."""

    method: str
    url: str
    form: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    client_ip: IPv4Address | None = None
    time: SimInstant = 0

    @property
    def scheme(self) -> str:
        """URL scheme (``http`` or ``https``)."""
        return urlsplit(self.url).scheme or "http"

    @property
    def host(self) -> str:
        """Host component of the URL, lowercased."""
        return (urlsplit(self.url).hostname or "").lower()

    @property
    def path(self) -> str:
        """Path component, defaulting to ``/``."""
        return urlsplit(self.url).path or "/"

    @property
    def query(self) -> dict[str, str]:
        """Query string parameters (last value wins)."""
        return dict(parse_qsl(urlsplit(self.url).query))


@dataclass
class HttpResponse:
    """An HTTP response returned by a site handler."""

    status: int
    body: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    final_url: str | None = None

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        """True for 3xx statuses carrying a Location header."""
        return 300 <= self.status < 400 and "Location" in self.headers


Handler = Callable[[HttpRequest], HttpResponse]


@dataclass(frozen=True)
class RequestLogEntry:
    """One transport-level request, for post-hoc auditing."""

    time: SimInstant
    method: str
    host: str
    path: str
    client_ip: IPv4Address | None
    status: int


#: Counter names per status family, interned once (per-request f-strings
#: would show up in the obs-overhead bench).
_STATUS_COUNTERS = {family: f"transport.status_{family}xx" for family in range(1, 6)}


class Transport:
    """Routes requests to registered hosts and records a request log."""

    #: Safety valve on redirect chains, matching browser behavior.
    MAX_REDIRECTS = 10

    def __init__(self, clock: Clock, network_latency: int = 1, obs=NO_OP):
        self._clock = clock
        self._latency = network_latency
        self._obs = obs
        self._handlers: dict[str, Handler] = {}
        self._https_hosts: set[str] = set()
        self._down_hosts: set[str] = set()
        self._log: list[RequestLogEntry] = []

    @property
    def clock(self) -> Clock:
        """The simulation clock requests are stamped with."""
        return self._clock

    def register_host(self, host: str, handler: Handler, https: bool = False) -> None:
        """Attach a handler for ``host``; ``https`` marks a valid cert."""
        key = host.lower()
        self._handlers[key] = handler
        if https:
            self._https_hosts.add(key)
        else:
            self._https_hosts.discard(key)

    def set_host_down(self, host: str, down: bool = True) -> None:
        """Mark a registered host as (un)reachable without removing it."""
        key = host.lower()
        if down:
            self._down_hosts.add(key)
        else:
            self._down_hosts.discard(key)

    def supports_https(self, host: str) -> bool:
        """Whether the host presents a validatable certificate."""
        return host.lower() in self._https_hosts

    def is_registered(self, host: str) -> bool:
        """Whether any handler exists for the host."""
        return host.lower() in self._handlers

    def request(
        self,
        method: str,
        url: str,
        form: dict[str, str] | None = None,
        client_ip: IPv4Address | None = None,
        headers: dict[str, str] | None = None,
        follow_redirects: bool = True,
    ) -> HttpResponse:
        """Perform a request, following redirects, and log it.

        Raises :class:`HostUnreachable` for unknown/down hosts and
        :class:`TlsError` when an ``https://`` URL hits a host without
        a valid certificate (the crawler validates certificates against
        a standard root list, Section 4.4).
        """
        response = self._single_request(method, url, form or {}, client_ip, headers or {})
        redirects = 0
        current_url = url
        while follow_redirects and response.is_redirect:
            redirects += 1
            if redirects > self.MAX_REDIRECTS:
                raise TransportError(f"redirect loop fetching {url!r}")
            current_url = absolutize(response.headers["Location"], base=current_url)
            response = self._single_request("GET", current_url, {}, client_ip, headers or {})
        if response.final_url is None:
            response.final_url = current_url
        return response

    def get(self, url: str, **kwargs: object) -> HttpResponse:
        """Shorthand for a GET request."""
        return self.request("GET", url, **kwargs)  # type: ignore[arg-type]

    def post(self, url: str, form: dict[str, str], **kwargs: object) -> HttpResponse:
        """Shorthand for a POST request with form data."""
        return self.request("POST", url, form=form, **kwargs)  # type: ignore[arg-type]

    def _single_request(
        self,
        method: str,
        url: str,
        form: dict[str, str],
        client_ip: IPv4Address | None,
        headers: dict[str, str],
    ) -> HttpResponse:
        self._clock.advance(self._latency)
        obs = self._obs
        obs.count("transport.requests")
        parts = urlsplit(url)
        host = (parts.hostname or "").lower()
        if not host:
            raise TransportError(f"URL without host: {url!r}")
        handler = self._handlers.get(host)
        if handler is None or host in self._down_hosts:
            obs.count("transport.unreachable")
            raise HostUnreachable(host)
        if parts.scheme == "https" and host not in self._https_hosts:
            obs.count("transport.tls_errors")
            raise TlsError(f"no valid certificate for {host}")
        request = HttpRequest(
            method=method.upper(),
            url=url,
            form=dict(form),
            headers=dict(headers),
            client_ip=client_ip,
            time=self._clock.now(),
        )
        response = handler(request)
        response.final_url = url
        family = response.status // 100
        obs.count(_STATUS_COUNTERS.get(family) or f"transport.status_{family}xx")
        self._log.append(
            RequestLogEntry(
                time=request.time,
                method=request.method,
                host=host,
                path=request.path,
                client_ip=client_ip,
                status=response.status,
            )
        )
        return response

    def request_log(self, host: str | None = None) -> list[RequestLogEntry]:
        """The request log, optionally filtered to one host."""
        if host is None:
            return list(self._log)
        key = host.lower()
        return [entry for entry in self._log if entry.host == key]

    def load_on_host(self, host: str) -> int:
        """Total requests a host has received (ethics accounting)."""
        return len(self.request_log(host))

    @property
    def request_count(self) -> int:
        """Total requests routed, without copying the log."""
        return len(self._log)


def absolutize(location: str, base: str) -> str:
    """Resolve a possibly-relative redirect Location against a base URL."""
    if "://" in location:
        return location
    base_parts = urlsplit(base)
    if location.startswith("/"):
        return urlunsplit((base_parts.scheme, base_parts.netloc, location, "", ""))
    # Relative to the base path's directory.
    directory = base_parts.path.rsplit("/", 1)[0]
    return urlunsplit((base_parts.scheme, base_parts.netloc, f"{directory}/{location}", "", ""))


def with_query(url: str, **params: str) -> str:
    """Append query parameters to a URL."""
    parts = urlsplit(url)
    query = dict(parse_qsl(parts.query))
    query.update(params)
    return urlunsplit((parts.scheme, parts.netloc, parts.path, urlencode(query), parts.fragment))
