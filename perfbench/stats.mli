(** Summary statistics of the benchmark's timed samples.

    Every function takes the samples in any order and leaves its input
    untouched; an empty input raises [Invalid_argument]. *)

val mean : float list -> float

val median : float list -> float
(** The middle sample, or the mean of the two middle ones. *)

type tail = {
  pct : int;      (** the percentile reported, by nearest rank *)
  value : float;  (** the sample at that rank *)
  beyond : int;   (** samples strictly after that rank *)
}

val tail : float list -> tail
(** The highest whole percentile [p] of the samples whose nearest-rank
    position [ceil (p n / 100)] leaves at least ten samples after it.  A
    tail is never reported below the median: when even [p = 50] leaves
    fewer than ten, the result is the 50th percentile and [beyond] says
    how many follow it. *)

val rates : events:int list -> secs:float list -> float list
(** Per-instance rates [events_i / secs_i].
    @raise Invalid_argument on lists of different lengths or a
    non-positive time. *)

val rate_median : events:int list -> secs:float list -> float
(** Median of {!rates}: one slow instance moves it by at most one rank. *)

val rate_mean : events:int list -> secs:float list -> float
(** Mean of {!rates}. *)
