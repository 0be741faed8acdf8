module glasswing/bench

go 1.22

require glasswing v0.0.0

replace glasswing => ../
