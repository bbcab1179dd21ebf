(** The benchmark's result line: one JSON object with exactly the keys
    [correct], [attempted], [failed] and [metrics], the last line of
    standard output. *)

type metric = { name : string; value : float; unit : string }

type t = {
  correct : bool;   (** every output check passed *)
  attempted : int;  (** instances run *)
  failed : int;     (** instances in which not every correct process decided *)
  metrics : metric list;  (** in output order; names are unique *)
}

val to_json : t -> Obs.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}]. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; rejects missing or extra keys, a non-integral
    count, a duplicated metric name and a non-numeric value. *)

val to_line : t -> string
(** {!to_json} on one line, without the newline. *)
