SELECT name FROM customer HAVING income > 1
