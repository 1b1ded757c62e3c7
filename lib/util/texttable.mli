(** Plain-text table rendering for experiment reports.

    Benches print gnuplot-style data blocks plus aligned summary tables;
    this keeps the formatting in one place. *)

type t

val create : header:string list -> t
(** @raise Invalid_argument on an empty header. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the row width differs from the header. *)

val add_float_row : t -> ?precision:int -> float list -> unit
(** Convenience: formats each cell with [%.*f] (default precision 2). *)

val render : t -> string
(** Render with a header rule and right-aligned numeric-looking columns. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
