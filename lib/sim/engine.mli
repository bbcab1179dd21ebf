(** Discrete-event asynchronous network engine.

    Processes are message handlers registered per pid; an adversarial
    {!Scheduler} orders deliveries; corruption turns a process Byzantine
    (attacker-supplied handler, still subject to cryptographic checks at
    receivers) or crashes it.  Determinism: a run is a pure function of the
    seed, the protocol, and the adversary.

    Faithfulness to the paper's model (§2): links are reliable and
    authenticated (the engine never drops or forges; source ids are
    trustworthy metadata), delivery order is adversary-controlled, and
    there is no bound on latency.  Corruption cannot remove messages
    already sent (no after-the-fact removal): envelopes in flight at
    corruption time are still delivered.

    {2 Storage and expansion}

    In-flight messages live in flat struct-of-arrays arenas (int fields in
    int arrays, payloads in a parallel array); {!Envelope.t} is a view
    materialized per delivery for observers and handlers.  How a broadcast
    reaches the event queue is the {!expand} mode:

    - [Eager]: n individual enqueues, the seed behaviour.
    - [Lazy] (default): one broadcast record; all n latencies are drawn at
      broadcast time from the engine rng in destination order — the exact
      draws the eager loop makes — then destinations are expanded one at a
      time as the queue picks them, with a single outstanding heap entry
      per broadcast.  Runs are byte-identical to [Eager] under any
      scheduler on a fixed seed.
    - [Sharded { jobs }]: like [Lazy], but the latency draws are fanned
      out over the {!Exec} domain pool in fixed-size destination chunks,
      each chunk drawing from an rng derived from (engine seed, broadcast
      id, chunk index), merged deterministically by (time, dst).  Output
      is byte-identical for every [jobs] value, but is a {e different}
      (equally valid) schedule than [Eager]/[Lazy].  Requires a
      {!Scheduler.t} with [content_oblivious = true] whose latency
      function is safe to call from worker domains (all built-ins are);
      otherwise the broadcast silently falls back to [Lazy].

    Legacy per-envelope {!on_send} observers can corrupt the sender
    between two destinations of one broadcast, which only eager expansion
    can realise — so registering any [on_send] observer forces eager
    expansion for subsequent broadcasts regardless of mode.  Passive
    accounting and tracing ({!Ledger}, {!Trace}) use {!on_send_meta},
    which keeps the lazy fast path. *)

type 'm t

type expand =
  | Eager  (** per-destination enqueue, the seed engine's behaviour. *)
  | Lazy  (** one record per broadcast, expanded on demand; the default. *)
  | Sharded of { jobs : int }
      (** lazy with latency draws sharded over the {!Exec} pool;
          [jobs = 0] resolves to {!Exec.default_jobs}. *)

type run_result =
  | All_done      (** the predicate became true. *)
  | Quiescent     (** no pending messages remain (and predicate is false). *)
  | Step_limit    (** gave up after [max_steps] deliveries. *)

val create :
  ?scheduler:'m Scheduler.t ->
  ?expand:expand ->
  ?queue_capacity:int ->
  n:int ->
  seed:int ->
  unit ->
  'm t
(** Default scheduler is {!Scheduler.random}; default expansion is
    [Lazy].  [queue_capacity] preallocates the event queue (default
    scales with [n]). *)

val n : 'm t -> int
val rng : 'm t -> Crypto.Rng.t
val metrics : 'm t -> Metrics.t
val expand_mode : 'm t -> expand

val step : 'm t -> int
(** Number of deliveries so far. *)

val now : 'm t -> float
(** Current virtual time. *)

val set_handler : 'm t -> int -> ('m Envelope.t -> unit) -> unit
(** Install the protocol handler for a (correct) process. *)

val send : 'm t -> src:int -> dst:int -> words:int -> 'm -> unit
(** Enqueue a message; its causal depth and word cost are recorded. *)

val broadcast : 'm t -> src:int -> words:int -> 'm -> unit
(** Send to all [n] processes (including the sender), as in the paper's
    "send to all" steps.  Cost is O(n) latency draws but O(1) queue
    traffic in [Lazy]/[Sharded] modes. *)

val corrupt_crash : 'm t -> int -> unit
(** Crash-stop: subsequent deliveries to this process are dropped and it
    sends nothing more. *)

val corrupt_byzantine : 'm t -> int -> ('m Envelope.t -> unit) -> unit
(** Hand the process to the adversary: the given handler replaces the
    protocol handler and may send arbitrary messages (its words are
    accounted separately from correct words). *)

val is_correct : 'm t -> int -> bool
val corrupted_count : 'm t -> int

val correct_pids : 'm t -> int list

val all_correct_monotone : 'm t -> (int -> bool) -> unit -> bool
(** [all_correct_monotone t pred] builds a predicate equivalent to
    "every currently-correct pid satisfies [pred]" under two
    monotonicity assumptions: [pred pid] never flips back to [false]
    once observed [true] (decisions and sub-protocol returns are
    permanent), and corruption never heals (crashed / Byzantine is
    forever — which {!corrupt_crash}/{!corrupt_byzantine} guarantee).
    The closure keeps a frontier cursor and only ever re-examines the
    first unsatisfied pid, so calling it once per delivery — the
    {!run} [~until] discipline — costs amortized O(1) instead of the
    O(n) of a fresh [correct_pids] scan.  At n = 10^5 that difference
    is the run: an O(n) [~until] turns a linear-word protocol
    quadratic in wall-clock. *)

val on_send : 'm t -> ('m Envelope.t -> unit) -> unit
(** Register an adversary observer invoked on every send — the "sees all
    communication" power, used by adaptive corruption policies.  Observers
    fire in registration order.  Registering one forces eager broadcast
    expansion (see the module header); passive accounting should prefer
    {!on_send_meta}. *)

val on_send_meta :
  'm t ->
  (src:int ->
  dst:int ->
  count:int ->
  id:int ->
  depth:int ->
  words:int ->
  correct:bool ->
  'm ->
  unit) ->
  unit
(** Compact send hook: one call covers [count] envelopes of one send
    operation, bound for destinations [dst .. dst + count - 1] with
    envelope ids [id .. id + count - 1] in destination order — a unicast
    is [count = 1], a broadcast [dst = 0, count = n] — each of [words]
    words at causal depth [depth], from a sender of class [correct].
    Does not force eager expansion.  While per-envelope {!on_send}
    observers are registered, every envelope is reported on its own
    ([count = 1]) just before they see it, so a sender those observers
    corrupt mid-broadcast is heard sending before it is corrupted, and
    each envelope carries the class judged when it was sent.  Observers
    fire in registration order. *)

val on_deliver : 'm t -> ('m Envelope.t -> unit) -> unit
(** Observer invoked on every delivery, before the destination handler.
    Observers fire in registration order. *)

val on_corrupt : 'm t -> (int -> unit) -> unit
(** Observer invoked with the pid whenever a process is corrupted.
    Observers fire in registration order. *)

val depth_of : 'm t -> int -> int
(** Current causal depth of a process (the paper's duration metric). *)

val max_correct_depth : 'm t -> int

val run : ?max_steps:int -> 'm t -> until:(unit -> bool) -> run_result
(** Deliver messages until the predicate holds, the network quiesces, or
    [max_steps] (default 50,000,000) deliveries happen. *)
