SELECT name FROM customer ORDER BY SUM(income)
