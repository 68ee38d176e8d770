module github.com/essential-stats/etlopt/bench

go 1.22

require github.com/essential-stats/etlopt v0.0.0

replace github.com/essential-stats/etlopt => ../
