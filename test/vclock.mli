(** Vector clocks: the canonical representation of Lamport causality.

    A test oracle, not library code: an {e independent} implementation of
    the paper's duration metric.  The engine tracks causal depth
    incrementally (an integer per process); [t_vclock.ml] recomputes
    depths from a {!Sim.Trace} with vector clocks and checks the two
    agree — each mechanism validating the other. *)

type t

val create : int -> t
(** All-zero clock for an [n]-process system. *)

val of_array : int array -> t
val to_array : t -> int array

val size : t -> int

val get : t -> int -> int

val tick : t -> int -> t
(** [tick c i] increments process [i]'s component (a local event). *)

val merge : t -> t -> t
(** Component-wise maximum: the receive rule. *)

val leq : t -> t -> bool
(** [leq a b] iff [a] happens-before-or-equals [b] (component-wise <=). *)

val lt : t -> t -> bool
(** Strict happens-before: [leq] and at least one strictly smaller. *)

val concurrent : t -> t -> bool
(** Neither happens before the other. *)

val compare_total : t -> t -> int
(** An arbitrary total order extending causality (lexicographic); useful
    as a sort key. *)

val sum : t -> int
(** Total event count folded into the clock. *)

val pp : Format.formatter -> t -> unit
