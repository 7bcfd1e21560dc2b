SELECT custid, SUM(name) FROM customer GROUP BY custid
