module courserank/bench

go 1.24

require courserank v0.0.0

replace courserank => ../
