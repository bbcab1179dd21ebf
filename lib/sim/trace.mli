(** Execution tracing: a bounded event log attached to an {!Engine}.

    Useful for debugging protocol runs and for forensic assertions in
    tests ("no correct process sent after X", "message m was delivered to
    everyone").  Events are recorded through the engine's observer hooks,
    so attaching a trace never changes an execution.  Sends come through
    {!Engine.on_send_meta}, so a traced engine keeps lazy broadcast
    expansion; the events are the same under either expansion mode.  The
    ring stores events as flat ints: recording one allocates nothing. *)

type event =
  | Sent of { step : int; id : int; src : int; dst : int; depth : int; words : int }
  | Delivered of { step : int; id : int; src : int; dst : int; depth : int }
  | Corrupted of { step : int; pid : int }

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of at most [capacity] events (default 100,000); older
    events are dropped first. *)

val attach : t -> 'm Engine.t -> unit
(** Start recording the engine's sends, deliveries and corruptions. *)

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Fold over the recorded events, oldest first, in one pass over the
    ring buffer and without materializing a list.  Every query below is
    implemented on top of this. *)

val iter : t -> f:(event -> unit) -> unit

val events : t -> event list
(** Recorded events, oldest first. *)

val length : t -> int

val dropped : t -> int
(** Events lost to the capacity bound. *)

val sends_by : t -> int -> int
(** Number of sends by a process. *)

val deliveries_of : t -> id:int -> int list
(** Destinations that received message [id], in delivery order. *)

val corrupted_pids : t -> int list

val max_depth : t -> int
(** Largest causal depth seen on any event. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
(** Prints the whole log, one event per line. *)
