(** Compile-as-a-service: the long-running mapping daemon behind
    [fpfa_map serve].

    The daemon speaks newline-delimited JSON — one request object per
    line in, one response object per line out — on stdin/stdout or a
    Unix domain socket. Requests name an operation ([op]) and carry the
    same knobs as the CLI: a kernel name or C source, a flow variant,
    tile overrides.

    {2 Protocol}

    Requests (fields beyond [op] are optional unless noted):

    - [{"op": "ping"}] — liveness.
    - [{"op": "compile", "kernel": "fir", ...}] — map one program.
      Input is ["kernel"] (built-in corpus name, prefix-resolved like the
      CLI) or ["source"] (C text) plus optional ["func"]. ["variant"]
      picks a {!Baseline} flow variant; ["alus"], ["buses"], ["window"]
      override tile parameters; ["bitopt"] toggles the certified
      bit-level stage and ["width"] (1-63, default 16) sets the signed
      input width its analysis assumes — both key the mapping-cache
      fingerprint since they change the minimised graph;
      ["verify": true] additionally runs the
      interpreter/evaluator/simulator conformance check on the kernel's
      inputs.
    - [{"op": "check", ...}] — same input fields; runs the full
      diagnostic audit ({!Fpfa_core.Flow.audit}).
    - [{"op": "sweep", "kernel": ..., "axis": "alus", "values": [2,3]}]
      — design-space sweep of one kernel along one axis: one front end
      and minimisation, then a rewind per point
      ({!Fpfa_core.Sweep.run_staged}); a bad point (an invalid tile, a
      failed mapping) fails the request naming the point.
    - [{"op": "batch", "requests": [...]}] — a list of compile/check
      requests admitted as one batch: cache hits answer immediately and
      the misses compile in parallel on the daemon's {!Fpfa_exec.Pool}.
    - [{"op": "stats"}] — hit/miss/eviction counts of the request
      cache and the mapping cache, request
      tallies ([requests], [compiles], [resumed], [disk_hits],
      [disk_evictions], [errors]), and (when observability is on) drained
      {!Fpfa_obs.Obs} counters and per-stage span aggregates.
    - [{"op": "cache", "action": "stats" | "clear" | "resize",
       "capacity": N}] — cache control.
    - [{"op": "shutdown"}] — answer, then stop the serving loop.

    Every response is an envelope with deterministic field order
    [id, ok, op, error?, digest?, cached, resumed_from, result,
    latency_us]:

    - [id] echoes the request's ["id"] (or [null]);
    - [digest] is {!Cdfg.Serialize.digest} of the request's raw CDFG;
    - [cached] is [null] (computed), ["request"] (whole-response hit),
      ["mapping"] (mapping-cache hit) or ["disk"];
    - [resumed_from] names the {!Fpfa_core.Flow.Staged.phase} a
      near-miss resumed from, else [null];
    - [result] is the operation's payload — the part that is
      byte-identical cache-on vs cache-off.

    {2 Cache}

    Two lookups, each an {!Lru} of [cache_size] entries, consulted in
    order:

    - the {e request cache} keys on the MD5 of the canonicalised request
      (fields sorted, ["id"] dropped) and stores finished response
      payloads;
    - the {e mapping cache} keys on the program — the hex of
      {!Fpfa_core.Flow.Staged.frontend_key} (function, source text and
      the config fields the front end reads) — joined with the config
      fingerprint, and stores frozen {!Fpfa_core.Flow.Staged.t}
      checkpoints with the digest of their raw graph, so a request that
      names a known program under a different spelling of its config
      hits without running the front end, and a request whose config
      differs only in late-phase knobs rewinds a cached checkpoint of the
      same program to the first dirty phase
      ({!Fpfa_core.Flow.Staged.rewind}) instead of remapping.

    With [cache_dir] set, computed mapping payloads also persist as JSON
    files named by cache key, surviving restarts; a disk hit runs the
    front end to report the raw graph's digest. With [cache_disk_max]
    additionally set, an LRU sweep (reads stamp file mtime; a sweep runs
    at startup and after every write) keeps the directory under the byte
    budget. Caches are mutated only from the admission domain; pool
    workers compile but never touch the cache.

    Compile requests run with the request's config as it stands, so
    every answer carries the bytes [fpfa_map compile] maps for the same
    program and config, whether it was computed, rewound or found in a
    cache. A request that misses every cache level compiles cold, unless
    a cached checkpoint of the same program under another config can be
    rewound ({!Fpfa_core.Flow.Staged.rewind}). The [serve.l1.*] (request)
    and [serve.l2.*] (mapping) tallies are mirrored into
    {!Fpfa_obs.Obs} counters for [--stats]. *)

type t
(** A daemon instance (caches + pool + tallies). *)

val create :
  ?jobs:int ->
  ?cache_size:int ->
  ?cache_dir:string ->
  ?cache_disk_max:int ->
  ?observe:bool ->
  unit ->
  t
(** [jobs] (default 1) sizes the {!Fpfa_exec.Pool} used by [batch] and
    [sweep]; [cache_size] (default 256 entries, 0 = cache off) bounds
    each LRU level; [cache_dir] enables the on-disk store (created if
    missing); [cache_disk_max] (bytes, default unbounded) turns on the
    disk store's LRU eviction sweep; [observe] (default false) makes
    [stats] drain and reset {!Fpfa_obs.Obs} — leave it off when the
    process hosts other observability users. *)

val jobs : t -> int

val running : t -> bool
(** [false] once a [shutdown] request has been handled. *)

val handle : t -> Fpfa_util.Json.t -> Fpfa_util.Json.t
(** Handle one request value; total — protocol errors come back as
    [ok: false] envelopes, never exceptions. *)

val handle_line : t -> string -> string
(** {!handle} on one request line: parse, dispatch, emit (no trailing
    newline). Malformed JSON yields an [ok: false] envelope. *)

val shutdown : t -> unit
(** Releases the worker pool. Idempotent; {!handle} still works
    afterwards (batches fall back to sequential). *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve line-by-line until EOF or a [shutdown] request; responses are
    flushed after every line. *)

val serve_socket : t -> path:string -> unit
(** Bind a Unix domain socket at [path] (an existing socket file is
    replaced) and serve concurrent clients with a select loop until a
    [shutdown] request arrives. The socket file is removed on exit. *)
