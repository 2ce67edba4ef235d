(** U001 fixture: the one export, read only by [perfbench/replay.ml]. *)

val timed : int -> int
